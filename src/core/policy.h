#ifndef GLD_CORE_POLICY_H_
#define GLD_CORE_POLICY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/code_context.h"
#include "sim/simulator.h"

namespace gld {

/**
 * A leakage-mitigation policy: after each QEC round it observes the round's
 * syndrome (and optionally the MLR leak flags) and schedules LRC gadgets to
 * be applied at the start of the NEXT round (the paper's closed-loop
 * semantics, Fig 2(c)).
 *
 * This is the per-shot interface.  Every in-tree policy derives from
 * WordPolicy instead, which decides all lanes of a batch at once; the
 * batch runner drives any other Policy through PerLanePolicy.
 */
class Policy {
  public:
    virtual ~Policy() = default;

    virtual std::string name() const = 0;

    /** Resets per-shot state (histories, round counters). */
    virtual void begin_shot() {}

    /**
     * Consumes round `round`'s result and fills `out` with the LRCs to
     * apply before round `round + 1`.  Each list must be strictly
     * ascending: the batch path packs schedules into lane masks and
     * refuses any other order (LrcMasks::add_lane).
     */
    virtual void observe(int round, const RoundResult& rr,
                         LrcSchedule* out) = 0;

    /**
     * Gives oracle policies read access to a ground-truth leak oracle for
     * the shot observe() sees.  Default: ignored.
     */
    virtual void set_leak_oracle(const LeakageOracle* /*oracle*/) {}

    /**
     * Convenience overload for per-shot callers driving a Simulator
     * directly: forwards its ground-truth oracle (any backend).
     */
    void set_oracle(const Simulator* sim)
    {
        set_leak_oracle(sim != nullptr ? &sim->leak_oracle() : nullptr);
    }
};

/**
 * A policy whose decision is one word-parallel kernel over all lanes of a
 * K-word batch: observe_words turns the round's detector / MLR / leak
 * lane words straight into LRC lane masks.
 *
 * Word contract:
 *  - begin_batch(active, K) starts a new shot on every lane of a batch
 *    (the lane-parallel begin_shot); per-lane state lives in K-word
 *    bit-planes.
 *  - observe_words(round, in, out) receives `out` sized for the context
 *    at K = in.n_words (LrcMasks::reset) and overwrites every word of it.
 *    Bits of lanes outside in.active must come out zero.
 *  - A lane's LRCs apply in the LrcMasks order: ascending data index,
 *    then ascending check index.
 *
 * The per-shot observe() is the same kernel at K = 1 with lane 0 the
 * shot: the round is packed into one-word spans and the mask unpacked
 * into an ascending schedule — one decision implementation per policy.
 */
class WordPolicy : public Policy {
  public:
    void begin_shot() final;
    void observe(int round, const RoundResult& rr, LrcSchedule* out) final;
    void set_leak_oracle(const LeakageOracle* oracle) override
    {
        oracle_ = oracle;
    }

    /** Starts a new shot on every lane of a K-word batch. */
    virtual void begin_batch(const LaneMask* active, int n_words)
    {
        (void)active;
        (void)n_words;
    }

    /** Decides the LRCs of every active lane (see the word contract). */
    virtual void observe_words(int round, const RoundWords& in,
                               LrcMasks* out) = 0;

  protected:
    /**
     * @param whole_round the kernel reads more than the detector and MLR
     *        words, so the one-lane observe() also packs meas_flip and
     *        the leak oracle (RoundWords::leaked).
     */
    explicit WordPolicy(const CodeContext& ctx, bool whole_round = false)
        : ctx_(&ctx), whole_round_(whole_round)
    {
    }

    const CodeContext& ctx() const { return *ctx_; }

  private:
    const CodeContext* ctx_;
    bool whole_round_;
    const LeakageOracle* oracle_ = nullptr;
    // One-lane scratch of observe(), reused across calls.
    std::vector<LaneMask> det_, mlr_, meas_, leaked_;
    LrcMasks masks_;
};

/**
 * The fallback adapter: runs a policy that has no word kernel (a timing
 * decorator, a test policy) lane by lane behind the word interface.  Each
 * lane owns its own instance from `make`; per round, every active lane's
 * words are unpacked into a RoundResult, that lane's observe() is called
 * once, and its schedule is packed back into the masks (refusing a
 * schedule that is not strictly ascending).  Each lane's instance sees a
 * leak oracle over that lane's bits of RoundWords::leaked.
 */
class PerLanePolicy final : public WordPolicy {
  public:
    using Maker = std::function<std::unique_ptr<Policy>()>;

    /** @param first lane 0's instance (built by the caller), or null
     *         to build it with `make`. */
    PerLanePolicy(const CodeContext& ctx, Maker make,
                  std::unique_ptr<Policy> first = nullptr);
    ~PerLanePolicy() override;

    std::string name() const override;
    void begin_batch(const LaneMask* active, int n_words) override;
    void observe_words(int round, const RoundWords& in,
                       LrcMasks* out) override;

  private:
    struct Lane;
    Lane& lane(int l);

    Maker make_;
    std::vector<std::unique_ptr<Lane>> lanes_;
    RoundResult rr_;
    LrcSchedule sched_;
};

/**
 * IDEAL: oracle speculation — LRCs exactly the currently-leaked qubits.
 * Still pays LRC gadget noise; the paper's Fig 10/14 lower bound.
 */
class IdealPolicy : public WordPolicy {
  public:
    explicit IdealPolicy(const CodeContext& ctx)
        : WordPolicy(ctx, /*whole_round=*/true)
    {
    }
    std::string name() const override { return "IDEAL"; }
    void observe_words(int round, const RoundWords& in,
                       LrcMasks* out) override;
};

/**
 * M (MLR-only): no syndrome speculation; LRCs only the ancillas whose
 * multi-level readout flags leakage (Table 2's "M" column).  Data-qubit
 * leakage is never serviced — the paper's motivation for speculation.
 */
class MlrOnlyPolicy : public WordPolicy {
  public:
    explicit MlrOnlyPolicy(const CodeContext& ctx) : WordPolicy(ctx) {}
    std::string name() const override { return "M"; }
    void observe_words(int round, const RoundWords& in,
                       LrcMasks* out) override;
};

/** Writes the MLR-flagged ancillas of the active lanes (the "+M" suffix). */
void mlr_check_masks(const RoundWords& in, LrcMasks* out);

}  // namespace gld

#endif  // GLD_CORE_POLICY_H_
