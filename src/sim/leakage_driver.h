#ifndef GLD_SIM_LEAKAGE_DRIVER_H_
#define GLD_SIM_LEAKAGE_DRIVER_H_

#include <cstdint>
#include <vector>

#include "circuit/round_circuit.h"
#include "codes/css_code.h"
#include "noise/noise_model.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace gld {

/**
 * The narrow quantum-state interface a simulation backend provides to the
 * shared LeakageDriver.  A backend owns ONLY the computational-subspace
 * representation (Pauli frame, CHP tableau, ...); every classical
 * leak-flag decision — what malfunctions, what transports, what an LRC
 * does, which noise draw happens when — lives in the driver, so the
 * semantics of the paper cannot drift between backends.
 *
 * Determinism contract: the driver performs every noise draw from its own
 * RNG.  A primitive may consume its own backend-private randomness (e.g. a
 * tableau measurement of a qubit not in a Z eigenstate) but must never
 * touch the driver's stream, so the driver's draw sequence is identical
 * across backends given the same leak-flag trajectory.
 */
class StatePrimitives {
  public:
    virtual ~StatePrimitives() = default;

    /** Re-initializes the whole state to |0...0> for a new shot. */
    virtual void reset_state() = 0;

    /** Applies a Pauli (kPauli* encoding) to qubit q. */
    virtual void apply_pauli(int q, uint32_t pauli) = 0;

    /** The coherent CNOT action (both operands in the subspace). */
    virtual void coherent_cnot(int control, int target) = 0;

    /** The coherent Hadamard action. */
    virtual void hadamard(int q) = 0;

    /** Noiseless reset of one qubit to |0> (init error is the driver's). */
    virtual void reset_z(int q) = 0;

    /**
     * Z-basis readout of a non-leaked qubit: returns the outcome as a flip
     * vs the noiseless reference (classical readout error is the
     * driver's).  An exact backend may collapse state here and may return
     * genuinely random projection values — the driver only ever combines
     * outcomes into detector/parity bits, where the reference cancels.
     */
    virtual uint8_t measure_z(int q) = 0;

    /**
     * Hook fired when qubit q's leak flag rises 0 -> 1: the qubit leaves
     * the computational subspace until an LRC clears it.  A frame backend
     * simply freezes the frame (no-op); an exact backend collapses the
     * departing qubit so the remaining stabilizer state stays
     * well-defined.
     */
    virtual void park_leaked(int q) = 0;
};

/**
 * The backend-agnostic classical-leakage round driver — the single home of
 * the paper's leakage semantics (§2.3/§2.4/§6), executed over any
 * StatePrimitives provider:
 *
 *  - CNOT with a leaked operand does not perform its coherent action; the
 *    non-leaked partner receives a uniformly random Pauli (an ancilla
 *    partner: an independent 50% flip of its measured bit, unless
 *    `leaked_gate_backaction`).  If the control is leaked, the leakage is
 *    instead transported to the target with probability `mobility`.
 *  - Two-level readout of a leaked qubit returns a uniformly random
 *    outcome; MLR reports the true leak flag with symmetric error mlr*p.
 *  - Measurement + reset do NOT clear leakage (a reset pulse has no
 *    effect on a parked |2> state); only LRC gadgets do.
 *  - A data-qubit LRC is a SWAP with a designated partner ancilla followed
 *    by reset: it *exchanges* leakage with the partner (a false-positive
 *    LRC against a leaked ancilla pumps leakage INTO the data qubit), then
 *    applies gadget noise.  An ancilla LRC resets the ancilla.
 *
 * The driver speaks the one-lane word format of BatchSimulator: LRCs come
 * in as one-word LrcMasks, and the round's detector / meas_flip / MLR
 * bits, the final readout and the leak flags go out as one word per check
 * or qubit (0 or 1: lane 0 is bit 0).  It owns the leak flags, the
 * previous-round measurement record and the noise RNG.
 */
class LeakageDriver final {
  public:
    /**
     * @param noise_rng the shot-MASTER stream: shot k of this driver
     *        draws from noise_rng.split(k), re-derived at every
     *        reset_shot() (the first shot's stream, split(0), is active
     *        from construction).  Per-shot streams are what make the
     *        bit-packed batch driver possible — lane k of a batch replays
     *        exactly shot k's draw sequence, independent of how many
     *        draws the other shots consumed (sim/batch_driver.h).
     * @param state the backend's primitives; must outlive the driver.
     */
    LeakageDriver(const CssCode& code, const RoundCircuit& rc,
                  const NoiseParams& np, Rng noise_rng,
                  StatePrimitives* state);

    // Non-copyable: the driver holds a pointer to its backend's
    // primitives (typically the enclosing simulator itself), so a copy
    // would drive the ORIGINAL object's quantum state.  This also makes
    // every LeakageDriverSim backend non-copyable, which is the point.
    LeakageDriver(const LeakageDriver&) = delete;
    LeakageDriver& operator=(const LeakageDriver&) = delete;

    /**
     * Clears flags, measurement history and the backend state, and
     * advances the noise stream to the next shot's split of the master
     * (shot k draws from master.split(k) regardless of how many draws
     * earlier shots made).
     */
    void reset_shot();

    /**
     * Restarts the driver under a NEW master stream: the same scrub as
     * reset_shot(), with the shot counter rewound to 0 and shot 0's
     * stream live but not yet counted, as after construction.  The
     * simulator-reuse path resets a cached driver per scheduler block
     * with the block's own master, making reuse bit-identical to fresh
     * construction.
     */
    void reset_for_block(Rng noise_rng);

    /** Raises qubit q's leak flag (fires park_leaked on 0 -> 1). */
    void set_leak(int q);
    /** Raises the leak flag of check c's ancilla. */
    void set_check_leak(int c) { set_leak(code_->ancilla_of(c)); }
    /** Clears a qubit's leak flag (tests). */
    void clear_leak(int q) { leaked_[static_cast<size_t>(q)] = 0; }
    /** Leak flag of any qubit (data or ancilla index). */
    bool leaked(int q) const { return leaked_[static_cast<size_t>(q)] != 0; }
    /**
     * The leak flags as one-lane words (0 or 1 per qubit, data qubits
     * first, then ancillas): the BatchSimulator::leaked_words() view of
     * a one-lane batch.  The address is fixed for the driver's lifetime.
     */
    const LaneMask* leaked_words() const { return leaked_.data(); }

    /**
     * Applies lane 0's LRC gadgets of `lrcs` (start-of-round semantics;
     * ascending data index, then ascending check index — the LrcMasks
     * order), then executes one noisy syndrome-extraction round over the
     * primitives.  The outcome is left in the round words.  Bits of
     * other lanes are ignored; masks not sized for this code at one word
     * are refused with std::invalid_argument.
     */
    void run_round(const LrcMasks& lrcs);

    /**
     * Round words of the last round, one word per check (0 or 1); zero
     * before the first round.
     */
    const LaneMask* detector_words() const { return det_.data(); }
    const LaneMask* meas_flip_words() const { return meas_.data(); }
    const LaneMask* mlr_flag_words() const { return mlr_.data(); }

    /**
     * Transversal Z-basis readout of all data qubits; leaked qubits read
     * out randomly, the rest via the measure_z primitive + readout error.
     * Returns the outcome flips, one word per data qubit (0 or 1), valid
     * until the next call.
     */
    const LaneMask* final_data_measure();

  private:
    /** Scrubs flags, history and backend state; shot k's stream goes live. */
    void start_shot(uint64_t k);
    /**
     * Z readout flip of qubit q: a fair coin if it is leaked, else the
     * measure_z primitive XOR a readout error at rate p.  The round's
     * ancilla readouts and the final data readout are this one rule.
     */
    LaneMask readout(int q);
    void apply_lrc_data(int q);
    void apply_lrc_check(int c);
    /** With probability p, a uniform non-identity Pauli on qubit q. */
    void depolarize1(int q, double p);
    void depolarize2(int q0, int q1);
    void leak_maybe(int q);
    void cnot(int control, int target);
    void malfunction(int partner, bool is_control);

    const CssCode* code_;
    const RoundCircuit* rc_;
    NoiseParams np_;
    Rng master_rng_;        ///< per-shot streams split off this
    Rng rng_;               ///< the CURRENT shot's stream
    uint64_t shot_index_ = 0;  ///< shots started (next reset_shot id)
    StatePrimitives* state_;

    // One-lane words, 0 or 1 each.
    std::vector<LaneMask> leaked_;     ///< leak flag per qubit
    std::vector<LaneMask> prev_meas_;  ///< previous meas_flip per check
    std::vector<LaneMask> meas_;       ///< last round's meas_flip per check
    std::vector<LaneMask> mlr_;        ///< last round's MLR flag per check
    std::vector<LaneMask> det_;        ///< last round's detector per check
    std::vector<LaneMask> final_;      ///< final readout per data qubit
    bool first_round_ = true;
};

/**
 * Simulator implemented as a LeakageDriver over this object's own
 * StatePrimitives: derive, implement the primitives plus name(), and the
 * entire leakage semantics comes along.  Both scalar backends are built
 * this way, which is what keeps them semantically identical by
 * construction — a third backend is a primitives provider, not a
 * re-implementation of the round dynamics.
 *
 * It is a one-lane BatchSimulator (width 1, K = 1) whose word entry
 * points are the driver's own: run_round_masks is the driver's round,
 * and the round, final-readout and leak words are the driver's spans.
 * The scalar Simulator calls (leak_oracle() included) come from
 * BatchSimulator's lane-0 adapter, like every backend's.
 */
class LeakageDriverSim : public BatchSimulator, protected StatePrimitives {
  public:
    /**
     * Default reuse reset for backends whose only randomness is the
     * driver's (the frame backend): fresh construction passes Rng(seed)
     * as the driver master, so resetting the driver with Rng(seed)
     * reproduces it exactly.  A backend with private randomness
     * (tableau projections) overrides this to re-derive BOTH streams
     * from the seed.
     */
    void reset_for_block(uint64_t seed) override
    {
        driver_.reset_for_block(Rng(seed));
    }
    void inject_check_leak(int c) final { driver_.set_check_leak(c); }
    void inject_x(int q) final { apply_pauli(q, kPauliX); }
    void inject_z(int q) final { apply_pauli(q, kPauliZ); }
    void clear_leak(int q) final { driver_.clear_leak(q); }

    // --- BatchSimulator: one lane, one word. ---
    int batch_width() const final { return 1; }
    int batch_lanes() const final { return 1; }
    int batch_n_words() const final { return 1; }
    void reset_shot_batch(int n_lanes) final;
    void inject_data_leak_lane(int lane, int q) final;
    const LaneMask* leaked_words() const final
    {
        return driver_.leaked_words();
    }
    const LaneMask* detector_words() const final
    {
        return driver_.detector_words();
    }
    const LaneMask* meas_flip_words() const final
    {
        return driver_.meas_flip_words();
    }
    const LaneMask* mlr_flag_words() const final
    {
        return driver_.mlr_flag_words();
    }
    void run_round_masks(const LrcMasks& lrcs) final
    {
        driver_.run_round(lrcs);
    }
    const LaneMask* final_data_measure_words() final
    {
        return driver_.final_data_measure();
    }

  protected:
    /**
     * @param noise_rng the driver's noise stream; a backend with private
     *        randomness (e.g. tableau projections) must derive both from
     *        its seed so one seed still fixes the whole shot sequence.
     */
    LeakageDriverSim(const CssCode& code, const RoundCircuit& rc,
                     const NoiseParams& np, Rng noise_rng);

    LeakageDriver driver_;
};

}  // namespace gld

#endif  // GLD_SIM_LEAKAGE_DRIVER_H_
