#include "core/table_policy.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace gld {

TablePolicy::TablePolicy(const CodeContext& ctx,
                         std::shared_ptr<const PatternTableSet> tables,
                         bool use_mlr)
    : WordPolicy(ctx), tables_(std::move(tables)), use_mlr_(use_mlr)
{
    const int per_bit = tables_->two_round() ? 2 : 1;
    table_.assign(static_cast<size_t>(ctx.code().n_data()), nullptr);
    for (int q = 0; q < ctx.code().n_data(); ++q) {
        const int k = ctx.degree_of(q);
        if (k == 0)
            continue;
        const int cls = ctx.class_of(q);
        if (cls >= tables_->n_classes() || tables_->bits(cls) != per_bit * k)
            throw std::invalid_argument(
                "TablePolicy: no " + std::to_string(per_bit * k) +
                "-bit table for the class of data qubit " +
                std::to_string(q));
        table_[static_cast<size_t>(q)] = tables_->table(cls).data();
    }
    TablePolicy::begin_batch(nullptr, 1);
}

void
TablePolicy::begin_batch(const LaneMask* active, int n_words)
{
    (void)active;
    if (!tables_->two_round())
        return;
    const size_t K = static_cast<size_t>(n_words);
    prev_.assign(ctx().obs_checks().size() * K, 0);
    has_prev_.assign(static_cast<size_t>(ctx().code().n_data()) * K, 0);
}

/** The single-round sparse lane gather. */
template <int KT>
void
TablePolicy::single_round(const RoundWords& in, LaneMask* data) const
{
    const size_t K = KT > 0 ? static_cast<size_t>(KT)
                            : static_cast<size_t>(in.n_words);
    const int* off = ctx().obs_offsets().data();
    const int* checks = ctx().obs_checks().data();
    const int n_data = ctx().code().n_data();
    for (int q = 0; q < n_data; ++q) {
        LaneMask* dst = &data[static_cast<size_t>(q) * K];
        const uint8_t* tab = table_[static_cast<size_t>(q)];
        if (tab == nullptr) {
            std::fill(dst, dst + K, 0);
            continue;
        }
        const int* chk = checks + off[q];
        const int k = off[q + 1] - off[q];
        for (size_t w = 0; w < K; ++w) {
            const auto det = [&](int i) {
                return in.detector[static_cast<size_t>(chk[i]) * K + w];
            };
            const LaneMask act = in.active[w];
            LaneMask cur = 0;
            for (int i = 0; i < k; ++i)
                cur |= det(i);
            cur &= act;
            // Quiet lanes all read table[0]; only fired lanes gather.
            LaneMask fire = act & ~cur & (0 - static_cast<LaneMask>(tab[0]));
            for (LaneMask f = cur; f != 0; f &= f - 1) {
                const int lane = __builtin_ctzll(f);
                uint32_t key = 0;
                for (int i = 0; i < k; ++i)
                    key |= static_cast<uint32_t>((det(i) >> lane) & 1u) << i;
                fire |= static_cast<LaneMask>(tab[key]) << lane;
            }
            dst[w] = fire;
        }
    }
}

/**
 * The two-round sparse lane gather over the window bit-planes: plane i
 * of qubit q's previous pattern is prev_[(off[q] + i)*K + w], stale
 * where the window is not primed.
 */
template <int KT>
void
TablePolicy::two_round(const RoundWords& in, LaneMask* data)
{
    const size_t K = KT > 0 ? static_cast<size_t>(KT)
                            : static_cast<size_t>(in.n_words);
    const int* off = ctx().obs_offsets().data();
    const int* checks = ctx().obs_checks().data();
    const int n_data = ctx().code().n_data();
    for (int q = 0; q < n_data; ++q) {
        LaneMask* dst = &data[static_cast<size_t>(q) * K];
        const uint8_t* tab = table_[static_cast<size_t>(q)];
        if (tab == nullptr) {
            std::fill(dst, dst + K, 0);
            continue;
        }
        const int* chk = checks + off[q];
        const int k = off[q + 1] - off[q];
        for (size_t w = 0; w < K; ++w) {
            const auto det = [&](int i) {
                return in.detector[static_cast<size_t>(chk[i]) * K + w];
            };
            LaneMask* prev = &prev_[static_cast<size_t>(off[q]) * K + w];
            const auto plane = [&](int i) -> LaneMask& {
                return prev[static_cast<size_t>(i) * K];
            };
            LaneMask& primed = has_prev_[static_cast<size_t>(q) * K + w];
            const LaneMask act = in.active[w];
            const LaneMask have = primed & act;
            LaneMask any = 0;
            for (int i = 0; i < k; ++i)
                any |= det(i) | plane(i);
            const LaneMask busy = have & any;
            LaneMask fire =
                have & ~busy & (0 - static_cast<LaneMask>(tab[0]));
            for (LaneMask f = busy; f != 0; f &= f - 1) {
                const int lane = __builtin_ctzll(f);
                uint32_t key = 0;
                for (int i = 0; i < k; ++i) {
                    key |= static_cast<uint32_t>((plane(i) >> lane) & 1u)
                           << (k + i);
                    key |= static_cast<uint32_t>((det(i) >> lane) & 1u) << i;
                }
                fire |= static_cast<LaneMask>(tab[key]) << lane;
            }
            dst[w] = fire;
            // Slide the window on every active lane that did not fire; a
            // lane that fired keeps no history (post-LRC restart).
            const LaneMask slide = act & ~fire;
            for (int i = 0; i < k; ++i)
                plane(i) = (plane(i) & ~slide) | (det(i) & slide);
            primed = (primed & ~act) | slide;
        }
    }
}

void
TablePolicy::observe_words(int round, const RoundWords& in, LrcMasks* out)
{
    (void)round;
    LaneMask* data = out->data.data();
    if (!tables_->two_round()) {
        if (in.n_words == 1)
            single_round<1>(in, data);
        else
            single_round<0>(in, data);
    } else {
        if (has_prev_.size() != static_cast<size_t>(ctx().code().n_data()) *
                                    static_cast<size_t>(in.n_words))
            throw std::logic_error("TablePolicy: observe_words at a width "
                                   "begin_batch did not set");
        if (in.n_words == 1)
            two_round<1>(in, data);
        else
            two_round<0>(in, data);
    }
    if (use_mlr_)
        mlr_check_masks(in, out);
    else
        std::fill(out->checks.begin(), out->checks.end(), 0);
}

}  // namespace gld
