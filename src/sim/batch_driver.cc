#include "sim/batch_driver.h"

#include <algorithm>
#include <stdexcept>

namespace gld {

// Every decision site below mirrors sim/leakage_driver.cc (the scalar
// reference implementation) statement for statement: the scalar control
// flow runs per lane, draws come from that lane's stream in the scalar
// within-shot order, and only the state mutation and the draw mechanics
// are batched — word-wide masked frame ops, and one LaneRngBank loop
// per Bernoulli site instead of per-lane Rng calls.
// When editing, keep the two files side by side — the tier-1
// frame/batch_frame bit-equality gate (at every batch width) fails on
// any divergence.

BatchFrameSim::BatchFrameSim(const CssCode& code, const RoundCircuit& rc,
                             const NoiseParams& np, uint64_t seed,
                             int batch_words, NoiseSampling noise_sampling)
    : BatchSimulator(code), rc_(&rc), np_(np), rate_p_(np.p), rate_pl_(np.pl()),
      rate_mlr_(np.mlr_err()), words_(batch_words),
      sparse_(noise_sampling == NoiseSampling::kSparse)
{
    if (batch_words < 1 || batch_words > kMaxBatchWords)
        throw std::invalid_argument(
            "BatchFrameSim: batch_words " + std::to_string(batch_words) +
            " outside [1, " + std::to_string(kMaxBatchWords) + "]");
    const size_t W = static_cast<size_t>(words_);
    const size_t nq = static_cast<size_t>(code.n_qubits());
    const size_t nc = static_cast<size_t>(code.n_checks());
    fx_.resize(nq * W);
    fz_.resize(nq * W);
    leaked_.resize(nq * W);
    prev_meas_.resize(nc * W);
    meas_flip_.resize(nc * W);
    mlr_flag_.resize(nc * W);
    det_scratch_.resize(nc * W);
    final_flip_.resize(static_cast<size_t>(code.n_data()) * W);
    lane_lrc_.resize(static_cast<size_t>(words_ * kBatchLanes));
    reset_for_block(seed);
}

void
BatchFrameSim::start_batch(int n_lanes)
{
    for (auto* v : {&fx_, &fz_, &leaked_, &prev_meas_, &meas_flip_,
                    &mlr_flag_, &det_scratch_, &final_flip_})
        std::fill(v->begin(), v->end(), 0);
    first_round_ = true;
    n_lanes_ = n_lanes;
    // Active-lane span: full words below the boundary, a partial word at
    // it, empty words above (the boundary may fall mid-span).
    for (int w = 0; w < words_; ++w) {
        const int base = w * kBatchLanes;
        if (n_lanes - base >= kBatchLanes)
            active_[w] = ~0ull;
        else if (n_lanes - base > 0)
            active_[w] = (1ull << (n_lanes - base)) - 1;
        else
            active_[w] = 0;
    }
    if (sparse_) {
        // One event stream per batch, derived from the same master at the
        // batch's first shot index: events depend only on (seed, stream,
        // block, batch #), so thread counts and shard splits cannot move
        // them.  The geometric countdowns restart with the stream.
        event_rng_ = master_rng_.split(shots_started_);
        for (LaneRate* rate : {&rate_p_, &rate_pl_, &rate_mlr_})
            rate->skip_valid = false;
    } else {
        // Lane l replays exactly the scalar driver's (shots_started_ +
        // l)-th shot: same master, same split id, same draw order — at
        // every K.
        for (int l = 0; l < n_lanes; ++l)
            lane_rng_.seed_lane(
                l,
                master_rng_.split(shots_started_ + static_cast<uint64_t>(l)));
    }
}

void
BatchFrameSim::reset_shot_batch(int n_lanes)
{
    const int max_lanes = words_ * kBatchLanes;
    if (n_lanes < 1 || n_lanes > max_lanes)
        throw std::invalid_argument(
            "reset_shot_batch: n_lanes " + std::to_string(n_lanes) +
            " outside [1, " + std::to_string(max_lanes) + "]");
    start_batch(n_lanes);
    shots_started_ += static_cast<uint64_t>(n_lanes);
}

void
BatchFrameSim::reset_for_block(uint64_t seed)
{
    // Same master stream as LeakFrameSim(seed): under lockstep sampling
    // lane l of batch b is bit-identical to the scalar frame backend's
    // shot (64*K*b + l), at every batch width K.  Sparse sampling derives
    // its event stream from the same master but draws a different
    // sequence (its own RNG contract; qualified statistically).
    master_rng_ = Rng(seed);
    shots_started_ = 0;
    // Like the scalar driver, shot 0's stream is live before any
    // reset_shot_batch (lane 0 active, not yet counted), so
    // primitive-level probing works.
    start_batch(1);
}

template <int WT>
__attribute__((always_inline)) inline void
BatchFrameSim::set_leak(int q, const LaneMask* lanes)
{
    const int W = WT > 0 ? WT : words_;
    LaneMask* lw = &leaked_[span(q)];
    for (int w = 0; w < W; ++w)
        lw[w] |= lanes[w];
}

template <int WT>
__attribute__((always_inline)) inline void
BatchFrameSim::coherent_cnot(int control, int target, const LaneMask* lanes)
{
    const int W = WT > 0 ? WT : words_;
    const size_t cb = span(control);
    const size_t tb = span(target);
    for (int w = 0; w < W; ++w) {
        const size_t ws = static_cast<size_t>(w);
        fx_[tb + ws] ^= fx_[cb + ws] & lanes[w];
        fz_[cb + ws] ^= fz_[tb + ws] & lanes[w];
    }
}

template <int WT>
__attribute__((always_inline)) inline void
BatchFrameSim::hadamard(int q, const LaneMask* lanes)
{
    const int W = WT > 0 ? WT : words_;
    const size_t base = span(q);
    for (int w = 0; w < W; ++w) {
        const size_t i = base + static_cast<size_t>(w);
        const LaneMask diff = (fx_[i] ^ fz_[i]) & lanes[w];
        fx_[i] ^= diff;
        fz_[i] ^= diff;
    }
}

template <int WT>
__attribute__((always_inline)) inline void
BatchFrameSim::reset_z(int q, const LaneMask* lanes)
{
    const int W = WT > 0 ? WT : words_;
    const size_t base = span(q);
    for (int w = 0; w < W; ++w) {
        fx_[base + static_cast<size_t>(w)] &= ~lanes[w];
        fz_[base + static_cast<size_t>(w)] &= ~lanes[w];
    }
}

uint64_t
BatchFrameSim::sparse_geometric(const LaneRate& rate)
{
    // u in (2^-53, 1]: the +1 keeps log() finite and makes skip == 0
    // (an immediate event) land exactly on probability p.  floor(log(u)
    // / log(1-p)) is the standard inverse-CDF geometric: the number of
    // quiet (site x lane) positions before the next firing one.
    const double u =
        (static_cast<double>(event_rng_.next_u64() >> 11) + 1.0) *
        0x1.0p-53;
    const double s = __builtin_log(u) * rate.inv_log1mp;
    // Clamp the astronomically-rare huge skip below the double->uint64
    // UB edge; a countdown this long outlives any real work unit anyway.
    if (s >= 9.0e18)
        return static_cast<uint64_t>(9.0e18);
    return static_cast<uint64_t>(s);
}

int
BatchFrameSim::kth_set_lane(const LaneMask* mask, int n_words,
                                 uint64_t k)
{
    for (int w = 0; w < n_words; ++w) {
        const uint64_t pc =
            static_cast<uint64_t>(__builtin_popcountll(mask[w]));
        if (k < pc) {
            LaneMask m = mask[w];
            for (uint64_t i = 0; i < k; ++i)
                m &= m - 1;  // clear the k lowest set bits
            return w * kBatchLanes + __builtin_ctzll(m);
        }
        k -= pc;
    }
    return -1;  // unreachable while k < popcount(mask)
}

template <int WT>
inline LaneMask
BatchFrameSim::sparse_bernoulli_mask(LaneRate& rate, const LaneMask* mask,
                                     LaneMask* out)
{
    const int W = WT > 0 ? WT : words_;
    uint64_t count = 0;
    for (int w = 0; w < W; ++w) {
        out[w] = 0;
        count += static_cast<uint64_t>(__builtin_popcountll(mask[w]));
    }
    if (!rate.skip_valid) {
        rate.skip = sparse_geometric(rate);
        rate.skip_valid = true;
    }
    if (rate.skip >= count) {
        // The quiet site — the overwhelmingly common case at paper noise
        // rates: a few popcounts and one subtraction, zero RNG work.
        rate.skip -= count;
        return 0;
    }
    // Walk the events inside this site's candidate positions, ascending
    // global lane order (the deterministic event order the bit-identity
    // gate pins).
    uint64_t k = rate.skip;
    while (k < count) {
        set_lane_bit(out, kth_set_lane(mask, W, k));
        k += 1 + sparse_geometric(rate);
    }
    rate.skip = k - count;
    return lanes_any(out, W);
}

template <int WT>
__attribute__((always_inline)) inline LaneMask
BatchFrameSim::bernoulli_mask(LaneRate& rate, const LaneMask* mask,
                              LaneMask* out)
{
    const int W = WT > 0 ? WT : words_;
    LaneMask any_mask = 0;
    for (int w = 0; w < W; ++w)
        any_mask |= mask[w];
    // Rng::bernoulli consumes NO draw at p <= 0 or p >= 1; neither may we.
    if (rate.never || any_mask == 0) {
        lanes_zero(out, W);
        return 0;
    }
    if (rate.always) {
        for (int w = 0; w < W; ++w)
            out[w] = mask[w];
        return any_mask;
    }
    if (sparse_)
        return sparse_bernoulli_mask<WT>(rate, mask, out);
    LaneMask uncovered = 0;
    for (int w = 0; w < W; ++w)
        uncovered |= active_[w] & ~mask[w];
    uint64_t fired = 0;
    if (uncovered == 0) {
        // Full-width site: every active lane draws, so one
        // step-and-compare pass over [0, n_lanes_) serves it.
        fired = lane_rng_.step_compare_all(n_lanes_, rate.thresh, bits_);
    } else {
        // Partial site (e.g. a reset skipping leaked lanes): masked step
        // so only the mask's lanes advance, then the branchless compare —
        // (a - t) has its sign bit set iff a < t (both fit in 53 bits).
        lane_rng_.step_masked(n_lanes_, mask, draw_);
        for (int l = 0; l < n_lanes_; ++l) {
            // Mask during the compare: non-mask lanes' draw word is 0,
            // which would otherwise read as a spurious fire.
            bits_[l] = (((draw_[l] >> 11) - rate.thresh) >> 63) &
                       ((mask[l >> 6] >> (l & 63)) & 1u);
            fired |= bits_[l];
        }
    }
    if (fired == 0) {
        lanes_zero(out, W);
        return 0;
    }
    pack_bits(n_lanes_, out);
    LaneMask any = 0;
    for (int w = 0; w < W; ++w) {
        out[w] &= mask[w];
        any |= out[w];
    }
    return any;
}

inline void
BatchFrameSim::depolarize_lane(int q, int lane)
{
    apply_pauli_lane(q, lane, 1 + payload_uniform_int(lane, 3));
}

template <int WT>
__attribute__((always_inline)) inline void
BatchFrameSim::depolarize1(int q)
{
    LaneMask fired[kMaxBatchWords];
    if (bernoulli_mask<WT>(rate_p_, active_, fired) != 0)
        for_each_lane(fired, WT > 0 ? WT : words_,
                      [&](int l) { depolarize_lane(q, l); });
}

template <int WT>
__attribute__((always_inline)) inline void
BatchFrameSim::depolarize2(int q0, int q1)
{
    LaneMask fired[kMaxBatchWords];
    if (bernoulli_mask<WT>(rate_p_, active_, fired) == 0)
        return;
    for_each_lane(fired, WT > 0 ? WT : words_, [&](int l) {
        // One of the 15 non-identity two-qubit Paulis, uniformly.
        const uint32_t pauli = 1 + payload_uniform_int(l, 15);
        apply_pauli_lane(q0, l, pauli & 3u);
        apply_pauli_lane(q1, l, (pauli >> 2) & 3u);
    });
}

template <int WT>
__attribute__((always_inline)) inline void
BatchFrameSim::leak_maybe(int q)
{
    LaneMask leak[kMaxBatchWords];
    if (bernoulli_mask<WT>(rate_pl_, active_, leak) != 0)
        set_leak<WT>(q, leak);
}

inline void
BatchFrameSim::malfunction_lane(int partner, int lane, bool is_control)
{
    if (partner >= code_->n_data() && !np_.leaked_gate_backaction) {
        // An ancilla partner's bit flips with probability 1/2: via X for
        // a Z-check target, via Z for an X-check control (measured in X
        // between its Hadamards).
        if (payload_bit(lane))
            apply_pauli_lane(partner, lane, is_control ? kPauliZ : kPauliX);
        return;
    }
    apply_pauli_lane(partner, lane, payload_uniform_int(lane, 4));
}

template <int WT>
__attribute__((always_inline)) inline void
BatchFrameSim::cnot(int control, int target)
{
    const int W = WT > 0 ? WT : words_;
    const LaneMask* cl = leaked(control);
    const LaneMask* tl = leaked(target);
    LaneMask clean[kMaxBatchWords], branch[kMaxBatchWords];
    LaneMask any_clean = 0, any_branch = 0;
    for (int w = 0; w < W; ++w) {
        clean[w] = active_[w] & ~cl[w] & ~tl[w];
        any_clean |= clean[w];
        // Exactly-one-leaked lanes take the malfunction/transport
        // branches; both-leaked lanes do nothing observable (scalar
        // semantics).
        branch[w] = active_[w] & (cl[w] ^ tl[w]);
        any_branch |= branch[w];
    }
    if (any_clean != 0)
        coherent_cnot<WT>(control, target, clean);
    if (any_branch != 0) {
        // Each lane touches only its own bits, so a lane's transport
        // cannot change what a later lane reads.
        for_each_lane(branch, W, [&](int l) {
            if (!lane_bit(cl, l)) {
                malfunction_lane(control, l, /*is_control=*/true);
            } else if (payload_bernoulli(l, np_.mobility)) {
                set_leak_lane(target, l);
                clear_leak_lane(control, l);
            } else {
                malfunction_lane(target, l, /*is_control=*/false);
            }
        });
    }

    depolarize2<WT>(control, target);
    leak_maybe<WT>(control);
    leak_maybe<WT>(target);
}

inline void
BatchFrameSim::apply_lrc_data(int q, int lane)
{
    const int pc = lrc_partner(*code_, q);
    if (pc >= 0) {
        const int anc = code_->ancilla_of(pc);
        const bool anc_was_leaked = lane_bit(leaked(anc), lane);
        clear_leak_lane(q, lane);
        clear_leak_lane(anc, lane);
        if (anc_was_leaked)
            set_leak_lane(q, lane);  // false-positive LRC pumps the leak IN
    } else {
        clear_leak_lane(q, lane);
    }
    if (payload_bernoulli(lane, np_.lrc_depol()))
        depolarize_lane(q, lane);
    if (payload_bernoulli(lane, np_.lrc_leak()))
        set_leak_lane(q, lane);
}

inline void
BatchFrameSim::apply_lrc_check(int c, int lane)
{
    const int anc = code_->ancilla_of(c);
    clear_leak_lane(anc, lane);
    // Noiseless |0> reset of the serviced lane's ancilla frame.
    const size_t i = span(anc) + static_cast<size_t>(lane >> 6);
    fx_[i] &= ~(1ull << (lane & 63));
    fz_[i] &= ~(1ull << (lane & 63));
    if (payload_bernoulli(lane, np_.lrc_leak()))
        set_leak_lane(anc, lane);
}

void
BatchFrameSim::apply_lrcs(const LrcMasks& lrcs)
{
    const int n_data = code_->n_data();
    const size_t W = static_cast<size_t>(words_);
    if (lrcs.n_words != words_ ||
        lrcs.data.size() != static_cast<size_t>(n_data) * W ||
        lrcs.checks.size() != static_cast<size_t>(code_->n_checks()) * W)
        throw std::invalid_argument(
            "run_round_masks: masks not sized for this code at " +
            std::to_string(words_) + " words (LrcMasks::reset)");
    // Bucket the mask bits into per-lane lists: qubits ascending (data
    // first, checks after), so each lane's list is in the LrcMasks order.
    LaneMask any = 0;
    const auto bucket = [&](const std::vector<LaneMask>& words, int id0) {
        const int n = static_cast<int>(words.size() / W);
        for (int v = 0; v < n; ++v) {
            for (int w = 0; w < words_; ++w) {
                const LaneMask m =
                    words[static_cast<size_t>(v) * W +
                          static_cast<size_t>(w)] &
                    active_[w];
                if (m == 0)
                    continue;
                any |= m;
                const int base = w * kBatchLanes;
                for_each_lane(m, [&](int b) {
                    lane_lrc_[static_cast<size_t>(base + b)].push_back(id0 +
                                                                       v);
                });
            }
        }
    };
    bucket(lrcs.data, 0);
    bucket(lrcs.checks, n_data);
    if (any == 0)
        return;
    // Lane by lane in ascending lane order: sparse mode draws the gadget
    // payloads from one event stream, so the lane order is part of the
    // draw sequence (lockstep lanes draw from their own streams only).
    for (int l = 0; l < n_lanes_; ++l) {
        std::vector<int>& list = lane_lrc_[static_cast<size_t>(l)];
        for (int id : list) {
            if (id < n_data)
                apply_lrc_data(id, l);
            else
                apply_lrc_check(id - n_data, l);
        }
        list.clear();
    }
}

template <int WT>
__attribute__((always_inline)) inline LaneMask
BatchFrameSim::unleaked(int q, LaneMask* ok) const
{
    const int W = WT > 0 ? WT : words_;
    const LaneMask* lq = leaked(q);
    LaneMask any = 0;
    for (int w = 0; w < W; ++w) {
        ok[w] = active_[w] & ~lq[w];
        any |= ok[w];
    }
    return any;
}

template <int WT>
__attribute__((always_inline)) inline void
BatchFrameSim::readout(int q, LaneMask* flip)
{
    const int W = WT > 0 ? WT : words_;
    const LaneMask* lq = leaked(q);
    LaneMask lk[kMaxBatchWords], ok[kMaxBatchWords];
    LaneMask err[kMaxBatchWords], rnd[kMaxBatchWords];
    for (int w = 0; w < W; ++w) {
        lk[w] = active_[w] & lq[w];
        ok[w] = active_[w] & ~lq[w];
        rnd[w] = 0;
    }
    if (!sparse_ && !rate_p_.never && !rate_p_.always) {
        // Lockstep: every active lane consumes exactly one word — leaked
        // lanes as Rng::bit, the rest as the readout-error Bernoulli — so
        // one full-width step serves the whole site.
        lane_rng_.step_all(n_lanes_, draw_);
        uint64_t any = 0;
        for (int l = 0; l < n_lanes_; ++l) {
            bits_[l] = ((draw_[l] >> 11) - rate_p_.thresh) >> 63;
            any |= bits_[l];
        }
        if (any != 0)
            pack_bits(n_lanes_, err);
        else
            lanes_zero(err, W);
        for_each_lane(lk, W, [&](int l) {
            rnd[l >> 6] |= (draw_[l] >> 63) << (l & 63);
        });
    } else {
        // The error site over the clean lanes (no draw at all at p <= 0
        // or p >= 1), then each leaked lane's coin in ascending lane
        // order: the sparse event stream's order, and per lane the same
        // draws as the full-width step above.
        bernoulli_mask<WT>(rate_p_, ok, err);
        for_each_lane(lk, W, [&](int l) {
            if (payload_bit(l))
                set_lane_bit(rnd, l);
        });
    }
    const LaneMask* fx = &fx_[span(q)];
    for (int w = 0; w < W; ++w)
        flip[w] = ((fx[w] ^ err[w]) & ok[w]) | (rnd[w] & lk[w]);
}

template <int WT>
__attribute__((always_inline)) inline void
BatchFrameSim::run_round_t(const LrcMasks& lrcs)
{
    const int n_checks = code_->n_checks();
    const int W = WT > 0 ? WT : words_;
    const size_t Ws = static_cast<size_t>(W);

    // 1. Scheduled LRC gadgets.
    apply_lrcs(lrcs);

    // 2. Round-start data noise.
    for (int q = 0; q < code_->n_data(); ++q) {
        depolarize1<WT>(q);
        leak_maybe<WT>(q);
    }

    // 3. The scheduled extraction circuit, word-wide.
    for (const Op& op : rc_->ops()) {
        switch (op.type) {
          case OpType::kResetZ: {
            // Reset skips leaked lanes entirely: no state touch, no
            // init-error draw (scalar semantics) — hence the masked site.
            LaneMask ok[kMaxBatchWords];
            if (unleaked<WT>(op.q0, ok) != 0) {
                reset_z<WT>(op.q0, ok);
                LaneMask flip[kMaxBatchWords];
                if (bernoulli_mask<WT>(rate_p_, ok, flip) != 0)
                    for_each_lane(flip, W, [&](int l) {
                        apply_pauli_lane(op.q0, l, kPauliX);  // to |1>
                    });
            }
            break;
          }
          case OpType::kH: {
            LaneMask ok[kMaxBatchWords];
            if (unleaked<WT>(op.q0, ok) != 0)
                hadamard<WT>(op.q0, ok);
            depolarize1<WT>(op.q0);
            break;
          }
          case OpType::kCnot:
            cnot<WT>(op.q0, op.q1);
            break;
          case OpType::kMeasure: {
            const int anc = op.q0;
            readout<WT>(anc, &meas_flip_[static_cast<size_t>(op.mslot) * Ws]);
            // MLR leak flag with symmetric misclassification.
            const LaneMask* la = leaked(anc);
            LaneMask* mlrw = &mlr_flag_[static_cast<size_t>(op.mslot) * Ws];
            LaneMask mlrt[kMaxBatchWords];
            bernoulli_mask<WT>(rate_mlr_, active_, mlrt);
            for (int w = 0; w < W; ++w)
                mlrw[w] = (active_[w] & la[w]) ^ mlrt[w];
            break;
          }
        }
    }

    // 4. Detector words (also advances prev_meas_).
    for (int c = 0; c < n_checks; ++c) {
        const bool zero_det =
            first_round_ && code_->check(c).type == CheckType::kX;
        for (int w = 0; w < W; ++w) {
            const size_t i = static_cast<size_t>(c) * Ws +
                             static_cast<size_t>(w);
            const LaneMask meas = meas_flip_[i];
            det_scratch_[i] = zero_det ? 0 : meas ^ prev_meas_[i];
            prev_meas_[i] = meas;
        }
    }
    first_round_ = false;
}

// One words_ dispatch per round (not per op) picks a compile-time-width
// body: the W loops unroll away, and at the common W=1 every span op
// degenerates to single-word straight-line code.
void
BatchFrameSim::run_round_masks(const LrcMasks& lrcs)
{
    switch (words_) {
      case 1: run_round_t<1>(lrcs); break;
      case 2: run_round_t<2>(lrcs); break;
      case 4: run_round_t<4>(lrcs); break;
      case 8: run_round_t<8>(lrcs); break;
      default: run_round_t<0>(lrcs); break;
    }
}

template <int WT>
__attribute__((always_inline)) inline void
BatchFrameSim::final_measure_t()
{
    for (int q = 0; q < code_->n_data(); ++q)
        readout<WT>(q, &final_flip_[span(q)]);
}

const LaneMask*
BatchFrameSim::final_data_measure_words()
{
    switch (words_) {
      case 1: final_measure_t<1>(); break;
      case 2: final_measure_t<2>(); break;
      case 4: final_measure_t<4>(); break;
      case 8: final_measure_t<8>(); break;
      default: final_measure_t<0>(); break;
    }
    return final_flip_.data();
}

}  // namespace gld
