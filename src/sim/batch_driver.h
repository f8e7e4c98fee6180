#ifndef GLD_SIM_BATCH_DRIVER_H_
#define GLD_SIM_BATCH_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/round_circuit.h"
#include "codes/css_code.h"
#include "noise/noise_model.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace gld {

/** Invokes f(lane) for every set bit of the single word m, ascending. */
template <typename F>
inline void
for_each_lane(LaneMask m, F&& f)
{
    while (m != 0) {
        f(__builtin_ctzll(m));
        m &= m - 1;
    }
}

/**
 * Invokes f(global_lane) for every set bit of the n_words-word span m,
 * ascending (global lane = word*64 + bit).
 */
template <typename F>
inline void
for_each_lane(const LaneMask* m, int n_words, F&& f)
{
    for (int w = 0; w < n_words; ++w) {
        LaneMask mw = m[w];
        const int base = w * kBatchLanes;
        while (mw != 0) {
            f(base + __builtin_ctzll(mw));
            mw &= mw - 1;
        }
    }
}

/** OR of an n_words-word lane span (nonzero iff any lane is set). */
inline LaneMask
lanes_any(const LaneMask* m, int n_words)
{
    LaneMask any = 0;
    for (int w = 0; w < n_words; ++w)
        any |= m[w];
    return any;
}

/** Zeroes an n_words-word lane span. */
inline void
lanes_zero(LaneMask* m, int n_words)
{
    for (int w = 0; w < n_words; ++w)
        m[w] = 0;
}

/** Tests global lane l of a span. */
inline bool
lane_bit(const LaneMask* m, int l)
{
    return (m[l >> 6] >> (l & 63)) & 1u;
}

/** Sets global lane l of a span. */
inline void
set_lane_bit(LaneMask* m, int l)
{
    m[l >> 6] |= 1ull << (l & 63);
}

/**
 * Up to kMaxBatchLanes xoshiro256** streams stored structure-of-arrays,
 * one per lane.
 *
 * Lane l's stream is seeded from an Rng (master.split(shot)) and steps
 * through the same xoshiro_step, so the lane's draw sequence is
 * bit-for-bit the scalar driver's.  `step_all`, `step_masked` and
 * `step_compare_all` advance many lanes in one plain loop.  The bank
 * exists for exactness, not speed: it is what lets lockstep replay the
 * frame backend shot for shot, as the batch engine's exact referee.
 * The sparse sampler (NoiseSampling::kSparse) never touches it.
 *
 * The Bernoulli fast path compares the 53-bit mantissa draw against
 * ceil(p * 2^53): exactly equivalent to Rng::bernoulli's
 * `uniform() < p` (the scaling by 2^53 is a power of two, so both sides
 * of the comparison are exact), with no int->double conversion per lane.
 */
class LaneRngBank {
  public:
    /** Lane l's stream := a bit-identical copy of `rng`'s. */
    void seed_lane(int l, const Rng& rng)
    {
        uint64_t s[4];
        rng.export_state(s);
        s0_[l] = s[0];
        s1_[l] = s[1];
        s2_[l] = s[2];
        s3_[l] = s[3];
    }

    /**
     * Advances lanes [0, n) one step and writes lane l's draw to out[l].
     * Inactive lanes < n advance too — harmless, they are reseeded at
     * the next batch and their draws are never observed.
     */
    void step_all(int n, uint64_t* __restrict__ out)
    {
        for (int l = 0; l < n; ++l)
            out[l] = next_lane(l);
    }

    /**
     * Advances ONLY the lanes of the `mask` span within [0, n) (out of
     * other lanes is 0).  Used at sites where some active lanes must not
     * draw (e.g. a reset pulse skips leaked lanes), so their streams
     * stay scalar-aligned.  `mask` spans ceil(n/64) words.
     */
    void step_masked(int n, const LaneMask* __restrict__ mask,
                     uint64_t* __restrict__ out)
    {
        for (int w = 0; w * kBatchLanes < n; ++w) {
            const LaneMask mw = mask[w];
            const int base = w * kBatchLanes;
            const int lim =
                n - base < kBatchLanes ? n - base : kBatchLanes;
            for (int b = 0; b < lim; ++b) {
                const int l = base + b;
                // Step a copy, then keep it only in the mask's lanes.
                const uint64_t keep =
                    static_cast<uint64_t>(0) - ((mw >> b) & 1u);
                uint64_t n0 = s0_[l], n1 = s1_[l], n2 = s2_[l], n3 = s3_[l];
                const uint64_t r = xoshiro_step(n0, n1, n2, n3);
                s0_[l] ^= (s0_[l] ^ n0) & keep;
                s1_[l] ^= (s1_[l] ^ n1) & keep;
                s2_[l] ^= (s2_[l] ^ n2) & keep;
                s3_[l] ^= (s3_[l] ^ n3) & keep;
                out[l] = r & keep;
            }
        }
    }

    /**
     * Step + Bernoulli compare in one pass: advances lanes [0, n),
     * writes the 0/1 fire flag of lane l to bits[l] (fire iff mantissa
     * draw < thresh, branchless via the subtraction sign bit) and
     * returns the OR of all flags.  This is lockstep's full-width
     * Bernoulli site; routing those sites through step_masked instead
     * costs several times more.
     */
    uint64_t step_compare_all(int n, uint64_t thresh,
                              uint64_t* __restrict__ bits)
    {
        uint64_t any = 0;
        for (int l = 0; l < n; ++l) {
            bits[l] = ((next_lane(l) >> 11) - thresh) >> 63;
            any |= bits[l];
        }
        return any;
    }

    /** One lane's next_u64 (the rare, lane-divergent paths). */
    uint64_t next_lane(int l)
    {
        return xoshiro_step(s0_[l], s1_[l], s2_[l], s3_[l]);
    }

  private:
    // Zeroed, so no state is indeterminate: a batch seeds only its lanes.
    alignas(64) uint64_t s0_[kMaxBatchLanes] = {};
    alignas(64) uint64_t s1_[kMaxBatchLanes] = {};
    alignas(64) uint64_t s2_[kMaxBatchLanes] = {};
    alignas(64) uint64_t s3_[kMaxBatchLanes] = {};
};

/**
 * A Bernoulli rate preprocessed for the lane bank's word-wide draw:
 * `thresh` is ceil(p * 2^53), and the p <= 0 / p >= 1 short-circuits
 * mirror Rng::bernoulli (which consumes NO draw in either case).
 *
 * The sparse (event-driven) sampler adds two kinds of state:
 *  - `inv_log1mp` = 1 / log(1-p), precomputed so a geometric skip is one
 *    log() per EVENT instead of one uniform per (site x lane) position.
 *  - `skip` / `skip_valid`: the persistent geometric countdown carried
 *    across every site drawn at this rate.  Bernoulli positions are iid,
 *    so one countdown per rate over the concatenated (site x lane)
 *    position stream is statistically exact — and it means a quiet site
 *    costs a popcount and a subtraction, zero RNG work.  Only the sparse
 *    sampler touches these fields; lockstep ignores them.
 */
struct LaneRate {
    double p = 0.0;
    uint64_t thresh = 0;
    bool never = true;
    bool always = false;
    double inv_log1mp = 0.0;  ///< 1/log(1-p) (sparse geometric skips)
    uint64_t skip = 0;        ///< positions left before the next event
    bool skip_valid = false;  ///< skip holds a live countdown

    LaneRate() = default;
    explicit LaneRate(double pp) : p(pp)
    {
        never = p <= 0.0;
        always = p >= 1.0;
        if (!never && !always) {
            thresh = static_cast<uint64_t>(__builtin_ceil(p * 0x1.0p53));
            inv_log1mp = 1.0 / __builtin_log1p(-p);
        }
    }
};

/**
 * The batch Pauli-frame backend (`batch_frame`): the classical leakage
 * semantics of the shared LeakageDriver (sim/leakage_driver.{h,cc} is
 * the reference implementation), executed for up to batch_words*64
 * shots in lockstep over bit-packed Pauli frames, one K-word X/Z span
 * per qubit.
 *
 * Frame state: each gate, reset and readout is a K-word strip of
 * AND/XOR operations over the lanes of a mask span (bit l of word w is
 * lane w*64+l; lanes are independent shots, so no op couples lanes and
 * bits outside the mask are left untouched).  The frame semantics match
 * LeakFrameSim lane for lane: a readout reads the X-frame word without
 * disturbing it, a leaked lane's frame freezes because no coherent gate
 * is routed at it, and an LRC preserves the serviced lane's frame.  No
 * frame op draws randomness.
 *
 * Determinism contract — the reason this engine can exist at all:
 *  - Lane l owns an independent noise stream, master.split(shot_base + l),
 *    exactly the stream the SCALAR driver uses for its (shot_base + l)-th
 *    shot.  At every decision site the engine walks the active lanes in
 *    ascending order and draws per lane from that lane's stream, in the
 *    same within-shot order as the scalar driver — so each lane's draw
 *    sequence is bit-identical to the scalar backend's corresponding
 *    shot, no matter what the other lanes do.  This holds at EVERY batch
 *    width: lane (w, l) of a K-word batch replays scalar shot w*64+l of
 *    the block draw for draw.
 *  - Control flow is computed per lane into masks; state mutation happens
 *    through word-wide masked frame ops, but never in a way the scalar
 *    driver could distinguish.
 *
 * Any semantic change to the scalar LeakageDriver MUST be mirrored here;
 * the cross-backend gate (frame vs batch_frame Metrics must be
 * bit-identical at every K, tier-1) is what catches a fork.
 *
 * The scalar Simulator calls are BatchSimulator's lane-0 adapter over
 * the batch entry points, so the same object serves the interface tests
 * and the runner's block loop.  The ground truth is the leak words
 * alone: leak_oracle() is lane 0 of leaked_words(), and the runner and
 * the word policies read every lane straight from the words.
 */
class BatchFrameSim final : public BatchSimulator {
  public:
    /**
     * The shot-master stream is Rng(seed), the same master LeakFrameSim
     * draws from: lane l of batch b draws from master.split(sum of
     * earlier batch widths + l), so under lockstep sampling the lanes
     * line up with the scalar frame backend's shots one for one.
     * @param batch_words words per lane span (1 <= K <= kMaxBatchWords);
     *        one batch holds up to batch_words*64 shots.
     * @param noise_sampling lockstep (per-lane streams, the scalar-aligned
     *        default) or sparse (one event stream for the whole batch,
     *        geometric skips over the (site x lane) position space — its
     *        own RNG contract, qualified statistically by verify).
     */
    BatchFrameSim(const CssCode& code, const RoundCircuit& rc,
                  const NoiseParams& np, uint64_t seed, int batch_words = 1,
                  NoiseSampling noise_sampling = NoiseSampling::kLockstep);

    std::string name() const override { return "batch_frame"; }

    // --- BatchSimulator. ---
    int batch_width() const override { return words_ * kBatchLanes; }
    int batch_n_words() const override { return words_; }

    /**
     * Starts a new batch of `n_lanes` shots (1 <= n_lanes <=
     * batch_width()): clears flags/history/frames, activates lanes
     * [0, n_lanes) and reseeds lane l with master.split(shots_started +
     * l).  Lanes >= n_lanes are padding: masked off everywhere and never
     * drawing — a partial batch's mask boundary may fall mid-span (a
     * full low word, a partial high word, empty words above).
     */
    void reset_shot_batch(int n_lanes) override;
    int batch_lanes() const override { return n_lanes_; }

    /**
     * Restarts under the master Rng(seed): the same scrub as
     * reset_shot_batch, with the shot counter rewound to 0 and lane 0
     * active on master.split(0) but not yet counted (the probing state).
     * The constructor ends in this call, so an engine the runner reuses
     * per scheduler block is bit-identical to a fresh one at every K.
     */
    void reset_for_block(uint64_t seed) override;

    void inject_data_leak_lane(int lane, int q) override
    {
        set_leak_lane(q, lane);
    }

    /**
     * Leak-flag words of every qubit, data first then ancillas: entry
     * q*batch_n_words()+w is word w of qubit q's span.
     */
    const LaneMask* leaked_words() const override { return leaked_.data(); }

    /**
     * Round words of the last round, one span per check: entry
     * c*batch_n_words()+w is word w of check c's span.  Bits of lanes
     * outside the batch are unspecified.
     */
    const LaneMask* detector_words() const override
    {
        return det_scratch_.data();
    }
    const LaneMask* meas_flip_words() const override
    {
        return meas_flip_.data();
    }
    const LaneMask* mlr_flag_words() const override
    {
        return mlr_flag_.data();
    }

    /**
     * Applies the LRC gadgets of `lrcs` (spans of batch_n_words() words;
     * bits of inactive lanes are ignored), then executes one noisy
     * syndrome-extraction round for every active lane in lockstep.  The
     * gadgets run lane by lane in ascending lane order, each lane's in
     * the LrcMasks order (ascending data index, then ascending check
     * index).  The round's outcome is left in the round words; nothing
     * is unpacked per lane.
     */
    void run_round_masks(const LrcMasks& lrcs) override;

    /**
     * Transversal Z-basis readout of all data qubits for every active
     * lane.  Returns the outcome-flip words, one span per data qubit
     * (entry q*batch_n_words()+w), valid until the next call.
     */
    const LaneMask* final_data_measure_words() override;

    // --- The rest of the scalar Simulator API: lane 0. ---
    void inject_check_leak(int c) override
    {
        set_leak_lane(code_->ancilla_of(c), 0);
    }
    void inject_x(int q) override { fx_[span(q)] ^= 1; }
    void inject_z(int q) override { fz_[span(q)] ^= 1; }
    void clear_leak(int q) override { clear_leak_lane(q, 0); }

  private:
    /** Offset of qubit (or check) q's K-word span in a per-qubit array. */
    size_t span(int q) const
    {
        return static_cast<size_t>(q) * static_cast<size_t>(words_);
    }

    /** Leak-flag span of qubit q (words_ words, bit per lane). */
    const LaneMask* leaked(int q) const { return &leaked_[span(q)]; }

    // Leak-flag updates: span forms for the round's word-wide sites,
    // one-hot lane forms for the lane injections and the per-lane LRC
    // gadgets.
    template <int WT> void set_leak(int q, const LaneMask* lanes);
    void clear_leak_span(int q, const LaneMask* lanes)
    {
        LaneMask* lw = &leaked_[span(q)];
        for (int w = 0; w < words_; ++w)
            lw[w] &= ~lanes[w];
    }
    void set_leak_lane(int q, int lane)
    {
        leaked_[span(q) + static_cast<size_t>(lane >> 6)] |=
            1ull << (lane & 63);
    }
    void clear_leak_lane(int q, int lane)
    {
        leaked_[span(q) + static_cast<size_t>(lane >> 6)] &=
            ~(1ull << (lane & 63));
    }

    /** Pauli `pauli` (kPauli* encoding) on qubit q in one lane's frame. */
    void apply_pauli_lane(int q, int lane, uint32_t pauli)
    {
        const size_t i = span(q) + static_cast<size_t>(lane >> 6);
        fx_[i] ^= static_cast<LaneMask>(pauli & 1u) << (lane & 63);
        fz_[i] ^= static_cast<LaneMask>((pauli >> 1) & 1u) << (lane & 63);
    }

    // Pauli-frame ops over the fx_/fz_ spans, in the lanes of a mask.
    /** CNOT: X copies control->target, Z copies target->control. */
    template <int WT>
    void coherent_cnot(int control, int target, const LaneMask* lanes);
    /** Hadamard: swaps the X and Z frame bits. */
    template <int WT> void hadamard(int q, const LaneMask* lanes);
    /** Noiseless |0> reset: clears both frame bits. */
    template <int WT> void reset_z(int q, const LaneMask* lanes);

    /**
     * The active lanes in which qubit q is not leaked, written to the
     * `ok` span (the lanes a gate or reset acts on); returns their OR.
     */
    template <int WT> LaneMask unleaked(int q, LaneMask* ok) const;

    /**
     * The Z readout of qubit q in every active lane, written to the
     * `flip` span: a leaked lane reads a fair coin, a clean lane its
     * X-frame bit XOR a readout error at rate p.  Both the round's
     * ancilla readouts and the final data readout are this one rule.
     */
    template <int WT> void readout(int q, LaneMask* flip);

    /** A depolarizing event in one lane: a uniform non-identity Pauli. */
    void depolarize_lane(int q, int lane);
    /**
     * The disturbance of a leaked CNOT's non-leaked `partner` in one
     * lane (LeakageDriver::malfunction's rule).
     */
    void malfunction_lane(int partner, int lane, bool is_control);
    void apply_lrc_data(int q, int lane);
    void apply_lrc_check(int c, int lane);
    /** Applies `lrcs` lane-major (see run_round_masks). */
    void apply_lrcs(const LrcMasks& lrcs);

    // The hot per-op helpers are templated on the batch width: WT > 0 is
    // a compile-time word count (the W loops unroll away — at the
    // common W=1 every span op is straight-line single-word code), WT ==
    // 0 reads the runtime words_.  run_round_masks dispatches once per
    // round on words_; everything below inlines into that instantiation.
    template <int WT> void depolarize1(int q);
    template <int WT> void depolarize2(int q0, int q1);
    template <int WT> void leak_maybe(int q);
    template <int WT> void cnot(int control, int target);

    /**
     * One word-wide Bernoulli site: every lane of the `mask` span draws
     * once from its own stream (lanes outside `mask` do not advance) and
     * the fired lanes are written to the `out` span.  Returns the OR of
     * the out words (nonzero iff any lane fired).  Bit-identical per
     * lane to Rng::bernoulli, including the no-draw p<=0 / p>=1
     * short-circuits.  Under sparse sampling the short-circuits still
     * hold, and sparse_bernoulli_mask serves the rest.
     */
    template <int WT>
    LaneMask bernoulli_mask(LaneRate& rate, const LaneMask* mask,
                            LaneMask* out);

    /**
     * bernoulli_mask's event-driven form (NoiseSampling::kSparse), for a
     * rate strictly inside (0, 1) and a nonempty mask: instead
     * of advancing every lane's stream, walk `rate`'s persistent
     * geometric countdown over the popcount(mask) candidate positions of
     * this site (ascending global lane order) and set only the firing
     * lanes in `out`.  A site where the countdown does not expire costs
     * ZERO draws; each event costs one uniform (the next skip).  The
     * countdown carries across sites, rounds and shots of one (stream,
     * block) work unit — events depend only on (seed, stream, block), so
     * results stay bit-identical across thread counts and shard splits.
     */
    template <int WT>
    LaneMask sparse_bernoulli_mask(LaneRate& rate, const LaneMask* mask,
                                   LaneMask* out);

    /** Next geometric skip (# of non-events before the next event). */
    uint64_t sparse_geometric(const LaneRate& rate);

    /** Global lane index of the k-th set bit of a span (k < popcount). */
    static int kth_set_lane(const LaneMask* mask, int n_words, uint64_t k);

    // Payload draws (Pauli choice, transport direction, LRC noise...)
    // after a fire decision: lockstep takes them from the firing lane's
    // own stream (scalar-aligned), sparse from the one event stream.
    // Either way they go through Rng's own draw formulas.
    uint64_t payload_word(int lane)
    {
        return sparse_ ? event_rng_.next_u64() : lane_rng_.next_lane(lane);
    }
    uint32_t payload_uniform_int(int lane, uint32_t n)
    {
        return Rng::uniform_int_of(payload_word(lane), n);
    }
    bool payload_bit(int lane) { return Rng::bit_of(payload_word(lane)); }
    bool payload_bernoulli(int lane, double p)
    {
        return Rng::bernoulli_of(p, [&] { return payload_word(lane); });
    }

    /**
     * Clears every frame, flag, history and scratch span, activates
     * lanes [0, n_lanes) and arms their streams from shot
     * shots_started_ on (the counter itself does not move).  Both resets
     * are this scrub, and so is construction.
     */
    void start_batch(int n_lanes);

    /**
     * Packs bits_[0..n) (each 0 or 1) into all words_ words of out; the
     * words above lane n are zeroed, so callers may read every word.
     */
    void pack_bits(int n, LaneMask* out) const
    {
        for (int w = 0; w < words_; ++w) {
            const int base = w * kBatchLanes;
            const int lim = n - base < kBatchLanes ? n - base : kBatchLanes;
            LaneMask m = 0;
            for (int b = 0; b < lim; ++b)
                m |= bits_[base + b] << b;
            out[w] = m;
        }
    }

    /** Width-specialized bodies of the two batch entry points. */
    template <int WT> void run_round_t(const LrcMasks& lrcs);
    template <int WT> void final_measure_t();

    const RoundCircuit* rc_;
    NoiseParams np_;
    LaneRate rate_p_;    ///< np.p, preprocessed for word-wide draws
    LaneRate rate_pl_;   ///< np.pl()
    LaneRate rate_mlr_;  ///< np.mlr_err()
    Rng master_rng_;
    uint64_t shots_started_ = 0;
    int words_ = 1;         ///< K: words per lane span
    bool sparse_ = false;   ///< NoiseSampling::kSparse event-driven draws
    Rng event_rng_;         ///< the sparse mode's one per-batch stream
    LaneRngBank lane_rng_;  ///< per-lane shot streams (SoA; lockstep only)
    uint64_t draw_[kMaxBatchLanes];  ///< scratch for word-wide draw sites
    uint64_t bits_[kMaxBatchLanes];  ///< scratch: 0/1 compare results

    LaneMask active_[kMaxBatchWords] = {};
    int n_lanes_ = 0;
    bool first_round_ = true;

    std::vector<LaneMask> fx_;         ///< X-frame span per qubit
    std::vector<LaneMask> fz_;         ///< Z-frame span per qubit
    std::vector<LaneMask> leaked_;     ///< leak-flag span per qubit
    std::vector<LaneMask> prev_meas_;  ///< previous meas_flip per check
    std::vector<LaneMask> meas_flip_;  ///< scratch, span per check
    std::vector<LaneMask> mlr_flag_;   ///< scratch, span per check
    std::vector<LaneMask> det_scratch_;  ///< scratch, span per check
    std::vector<LaneMask> final_flip_;   ///< final readout, span per data
    /// Per-lane LRC gadget lists of the current round (data qubit q as
    /// q, check c as n_data + c), ascending: the lane-major apply order.
    std::vector<std::vector<int>> lane_lrc_;
};

}  // namespace gld

#endif  // GLD_SIM_BATCH_DRIVER_H_
