#include <cstddef>
#include "sim/tableau_sim.h"

#include <algorithm>
#include <cassert>

namespace gld {

TableauSim::TableauSim(int n_qubits, uint64_t seed)
    : n_(n_qubits), words_((n_qubits + 63) / 64),
      xs_(static_cast<size_t>(2 * n_qubits) * words_, 0),
      zs_(static_cast<size_t>(2 * n_qubits) * words_, 0),
      r_(2 * n_qubits, 0), rng_(seed)
{
    // Identity tableau: destabilizer i = X_i, stabilizer n+i = Z_i.
    for (int i = 0; i < n_; ++i) {
        set_xbit(i, i, true);
        set_zbit(n_ + i, i, true);
    }
}

void
TableauSim::reset_all()
{
    std::fill(xs_.begin(), xs_.end(), 0);
    std::fill(zs_.begin(), zs_.end(), 0);
    std::fill(r_.begin(), r_.end(), 0);
    for (int i = 0; i < n_; ++i) {
        set_xbit(i, i, true);
        set_zbit(n_ + i, i, true);
    }
}

bool
TableauSim::xbit(int row, int q) const
{
    return (xs_[static_cast<size_t>(row) * words_ + q / 64] >> (q % 64)) & 1;
}

bool
TableauSim::zbit(int row, int q) const
{
    return (zs_[static_cast<size_t>(row) * words_ + q / 64] >> (q % 64)) & 1;
}

void
TableauSim::set_xbit(int row, int q, bool v)
{
    uint64_t& w = xs_[static_cast<size_t>(row) * words_ + q / 64];
    const uint64_t m = 1ull << (q % 64);
    w = v ? (w | m) : (w & ~m);
}

void
TableauSim::set_zbit(int row, int q, bool v)
{
    uint64_t& w = zs_[static_cast<size_t>(row) * words_ + q / 64];
    const uint64_t m = 1ull << (q % 64);
    w = v ? (w | m) : (w & ~m);
}

void
TableauSim::h(int q)
{
    for (int row = 0; row < 2 * n_; ++row) {
        const bool x = xbit(row, q), z = zbit(row, q);
        r_[row] ^= static_cast<uint8_t>(x && z);
        set_xbit(row, q, z);
        set_zbit(row, q, x);
    }
}

void
TableauSim::s(int q)
{
    for (int row = 0; row < 2 * n_; ++row) {
        const bool x = xbit(row, q), z = zbit(row, q);
        r_[row] ^= static_cast<uint8_t>(x && z);
        set_zbit(row, q, x ^ z);
    }
}

void
TableauSim::cnot(int control, int target)
{
    for (int row = 0; row < 2 * n_; ++row) {
        const bool xc = xbit(row, control), zc = zbit(row, control);
        const bool xt = xbit(row, target), zt = zbit(row, target);
        r_[row] ^= static_cast<uint8_t>(xc && zt && (xt == zc));
        set_xbit(row, target, xt ^ xc);
        set_zbit(row, control, zc ^ zt);
    }
}

void
TableauSim::x(int q)
{
    for (int row = 0; row < 2 * n_; ++row)
        r_[row] ^= static_cast<uint8_t>(zbit(row, q));
}

void
TableauSim::z(int q)
{
    for (int row = 0; row < 2 * n_; ++row)
        r_[row] ^= static_cast<uint8_t>(xbit(row, q));
}

void
TableauSim::y(int q)
{
    x(q);
    z(q);
}

int
TableauSim::row_phase_exponent(int h, int i) const
{
    // Sum of the g() contributions when multiplying row i into row h,
    // following Aaronson-Gottesman.
    int sum = 2 * (r_[h] + r_[i]);
    for (int q = 0; q < n_; ++q) {
        const int x1 = xbit(i, q), z1 = zbit(i, q);
        const int x2 = xbit(h, q), z2 = zbit(h, q);
        int g = 0;
        if (x1 == 1 && z1 == 0)
            g = z2 * (2 * x2 - 1);
        else if (x1 == 0 && z1 == 1)
            g = x2 * (1 - 2 * z2);
        else if (x1 == 1 && z1 == 1)
            g = z2 - x2;
        sum += g;
    }
    return ((sum % 4) + 4) % 4;
}

void
TableauSim::rowsum(int h, int i)
{
    const int phase = row_phase_exponent(h, i);
    assert(phase == 0 || phase == 2);
    r_[h] = static_cast<uint8_t>(phase == 2);
    for (int w = 0; w < words_; ++w) {
        xs_[static_cast<size_t>(h) * words_ + w] ^=
            xs_[static_cast<size_t>(i) * words_ + w];
        zs_[static_cast<size_t>(h) * words_ + w] ^=
            zs_[static_cast<size_t>(i) * words_ + w];
    }
}

bool
TableauSim::measure_z(int q, bool* was_random, const bool* forced_random)
{
    int p = -1;
    for (int row = n_; row < 2 * n_; ++row) {
        if (xbit(row, q)) {
            p = row;
            break;
        }
    }
    if (p >= 0) {
        // Random outcome.
        if (was_random != nullptr)
            *was_random = true;
        // Destabilizer row d = p-n takes the old stabilizer row p below,
        // so it is skipped here: rowsum into it would be discarded, and
        // its phase (it anticommutes with row p) may be +-i.
        const int d = p - n_;
        for (int row = 0; row < 2 * n_; ++row) {
            if (row != p && row != d && xbit(row, q))
                rowsum(row, p);
        }
        for (int w = 0; w < words_; ++w) {
            xs_[static_cast<size_t>(d) * words_ + w] =
                xs_[static_cast<size_t>(p) * words_ + w];
            zs_[static_cast<size_t>(d) * words_ + w] =
                zs_[static_cast<size_t>(p) * words_ + w];
            xs_[static_cast<size_t>(p) * words_ + w] = 0;
            zs_[static_cast<size_t>(p) * words_ + w] = 0;
        }
        r_[d] = r_[p];
        set_zbit(p, q, true);
        const bool outcome =
            forced_random != nullptr ? *forced_random : rng_.bit();
        r_[p] = static_cast<uint8_t>(outcome);
        return outcome;
    }
    // Deterministic outcome: accumulate into a scratch row.
    if (was_random != nullptr)
        *was_random = false;
    // Use an extra virtual scratch row implemented with temporaries.
    std::vector<uint64_t> sx(words_, 0), sz(words_, 0);
    int phase2 = 0;  // phase exponent mod 4 accumulated pairwise
    // Emulate rowsum into scratch: replay AG's 2n+1 row trick.
    auto scratch_rowsum = [&](int i) {
        int sum = 2 * ((phase2 >> 1) & 1) + 2 * r_[i];
        for (int qq = 0; qq < n_; ++qq) {
            const int x1 = xbit(i, qq), z1 = zbit(i, qq);
            const int x2 =
                static_cast<int>((sx[qq / 64] >> (qq % 64)) & 1);
            const int z2 =
                static_cast<int>((sz[qq / 64] >> (qq % 64)) & 1);
            int g = 0;
            if (x1 == 1 && z1 == 0)
                g = z2 * (2 * x2 - 1);
            else if (x1 == 0 && z1 == 1)
                g = x2 * (1 - 2 * z2);
            else if (x1 == 1 && z1 == 1)
                g = z2 - x2;
            sum += g;
        }
        sum = ((sum % 4) + 4) % 4;
        assert(sum == 0 || sum == 2);
        phase2 = sum;
        for (int w = 0; w < words_; ++w) {
            sx[w] ^= xs_[static_cast<size_t>(i) * words_ + w];
            sz[w] ^= zs_[static_cast<size_t>(i) * words_ + w];
        }
    };
    for (int i = 0; i < n_; ++i) {
        if (xbit(i, q))
            scratch_rowsum(i + n_);
    }
    return phase2 == 2;
}

void
TableauSim::reset_z(int q)
{
    const bool m = measure_z(q);
    if (m)
        x(q);
}

int
TableauSim::z_product_expectation(const std::vector<int>& support)
{
    std::vector<uint8_t> in_support(n_, 0);
    for (int q : support)
        in_support[q] ^= 1;

    // O = prod Z_q anticommutes with a Pauli row iff the row has an odd
    // number of X/Y components inside the support.
    auto anticommutes = [&](int row) {
        int parity = 0;
        for (int q = 0; q < n_; ++q) {
            if (in_support[q] && xbit(row, q))
                parity ^= 1;
        }
        return parity != 0;
    };

    // Random outcome iff O anticommutes with some stabilizer.
    for (int row = n_; row < 2 * n_; ++row) {
        if (anticommutes(row))
            return 0;
    }

    // Deterministic: O = +/- prod of the stabilizers S_i for which O
    // anticommutes with destabilizer i.  Accumulate them in a scratch row
    // to read off the sign.
    std::vector<uint64_t> sx(words_, 0), sz(words_, 0);
    int phase2 = 0;
    auto scratch_rowsum = [&](int i) {
        int sum = 2 * ((phase2 >> 1) & 1) + 2 * r_[i];
        for (int qq = 0; qq < n_; ++qq) {
            const int x1 = xbit(i, qq), z1 = zbit(i, qq);
            const int x2 = static_cast<int>((sx[qq / 64] >> (qq % 64)) & 1);
            const int z2 = static_cast<int>((sz[qq / 64] >> (qq % 64)) & 1);
            int g = 0;
            if (x1 == 1 && z1 == 0)
                g = z2 * (2 * x2 - 1);
            else if (x1 == 0 && z1 == 1)
                g = x2 * (1 - 2 * z2);
            else if (x1 == 1 && z1 == 1)
                g = z2 - x2;
            sum += g;
        }
        sum = ((sum % 4) + 4) % 4;
        assert(sum == 0 || sum == 2);
        phase2 = sum;
        for (int w = 0; w < words_; ++w) {
            sx[w] ^= xs_[static_cast<size_t>(i) * words_ + w];
            sz[w] ^= zs_[static_cast<size_t>(i) * words_ + w];
        }
    };
    for (int i = 0; i < n_; ++i) {
        if (anticommutes(i))
            scratch_rowsum(i + n_);
    }
    return phase2 == 2 ? -1 : +1;
}

}  // namespace gld
