#ifndef GLD_SIM_OP_PROFILE_H_
#define GLD_SIM_OP_PROFILE_H_

#include <cstdint>

#include "circuit/round_circuit.h"
#include "codes/css_code.h"
#include "noise/noise_model.h"
#include "sim/leakage_driver.h"
#include "sim/simulator.h"

namespace gld {

/**
 * Primitive-call counts of a driver execution — the per-gadget cost
 * profile the ROADMAP's "driver-level instrumentation" item asks for.
 * The mock-state tests established that the driver's primitive-call
 * stream is a faithful trace of a round; these counters make that trace
 * a first-class quantity the hw/ timing models can consume, for any code
 * and any schedule, without touching the engines.
 */
struct OpCounts {
    long resets_state = 0;  ///< whole-state reinitializations
    long paulis = 0;        ///< apply_pauli calls (noise + malfunctions)
    long cnots = 0;         ///< coherent CNOT actions
    long hadamards = 0;     ///< coherent Hadamard actions
    long resets = 0;        ///< single-qubit |0> resets
    long measures = 0;      ///< Z-basis readouts
    long parks = 0;         ///< leak-flag rises (park hook firings)

    OpCounts operator-(const OpCounts& o) const
    {
        return {resets_state - o.resets_state,
                paulis - o.paulis,
                cnots - o.cnots,
                hadamards - o.hadamards,
                resets - o.resets,
                measures - o.measures,
                parks - o.parks};
    }
    bool operator==(const OpCounts& o) const
    {
        return resets_state == o.resets_state && paulis == o.paulis &&
               cnots == o.cnots && hadamards == o.hadamards &&
               resets == o.resets && measures == o.measures &&
               parks == o.parks;
    }
};

/**
 * StatePrimitives decorator that counts every call before forwarding to
 * an optional inner backend (nullptr = count against a sink, which is
 * all profiling needs: the driver's decision sequence does not depend on
 * the frame/tableau state, only on its own flags and RNG — measure_z
 * reads 0 from the sink, i.e. the noiseless reference outcome).
 */
class CountingState final : public StatePrimitives {
  public:
    explicit CountingState(StatePrimitives* inner = nullptr)
        : inner_(inner)
    {
    }

    const OpCounts& counts() const { return counts_; }
    void reset_counts() { counts_ = OpCounts{}; }

    void reset_state() override
    {
        ++counts_.resets_state;
        if (inner_ != nullptr)
            inner_->reset_state();
    }
    void apply_pauli(int q, uint32_t pauli) override
    {
        ++counts_.paulis;
        if (inner_ != nullptr)
            inner_->apply_pauli(q, pauli);
    }
    void coherent_cnot(int control, int target) override
    {
        ++counts_.cnots;
        if (inner_ != nullptr)
            inner_->coherent_cnot(control, target);
    }
    void hadamard(int q) override
    {
        ++counts_.hadamards;
        if (inner_ != nullptr)
            inner_->hadamard(q);
    }
    void reset_z(int q) override
    {
        ++counts_.resets;
        if (inner_ != nullptr)
            inner_->reset_z(q);
    }
    uint8_t measure_z(int q) override
    {
        ++counts_.measures;
        return inner_ != nullptr ? inner_->measure_z(q) : 0;
    }
    void park_leaked(int q) override
    {
        ++counts_.parks;
        if (inner_ != nullptr)
            inner_->park_leaked(q);
    }

  private:
    StatePrimitives* inner_;
    OpCounts counts_;
};

/**
 * Per-gadget round profile: primitive counts of one noiseless driver
 * round without LRCs (`quiet` — exactly the scheduled extraction
 * circuit) and with the given schedule (`scheduled`), plus their
 * difference (`lrc_overhead` — what the scheduled gadgets added).  With
 * noiseless parameters the counts are deterministic, so they golden-pin
 * the circuit's gate budget per code; under noisy parameters they become
 * a Monte-Carlo sample of the actual op load.
 */
struct RoundOpProfile {
    OpCounts quiet;
    OpCounts scheduled;
    OpCounts lrc_overhead;
};

/**
 * Profiles one driver round of `code` under `np`: runs the shared
 * LeakageDriver over a CountingState (no engine behind it) once without
 * and once with `lrcs`, both from the same seed.  `lrcs` is packed into
 * one-word masks, so each list must be strictly ascending
 * (LrcMasks::add_lane).
 */
RoundOpProfile profile_round_ops(const CssCode& code,
                                 const RoundCircuit& rc,
                                 const NoiseParams& np,
                                 const LrcSchedule& lrcs,
                                 uint64_t seed = 0);

}  // namespace gld

#endif  // GLD_SIM_OP_PROFILE_H_
