#include "sim/leakage_driver.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace gld {

LeakageDriver::LeakageDriver(const CssCode& code, const RoundCircuit& rc,
                             const NoiseParams& np, Rng noise_rng,
                             StatePrimitives* state)
    : code_(&code), rc_(&rc), np_(np), master_rng_(noise_rng),
      rng_(noise_rng.split(0)), state_(state)
{
    const size_t nc = static_cast<size_t>(code.n_checks());
    leaked_.assign(static_cast<size_t>(code.n_qubits()), 0);
    prev_meas_.assign(nc, 0);
    meas_.assign(nc, 0);
    mlr_.assign(nc, 0);
    det_.assign(nc, 0);
    final_.assign(static_cast<size_t>(code.n_data()), 0);
}

void
LeakageDriver::start_shot(uint64_t k)
{
    std::fill(leaked_.begin(), leaked_.end(), 0);
    std::fill(prev_meas_.begin(), prev_meas_.end(), 0);
    first_round_ = true;
    // Shot k draws from its own split of the master, so a shot's draw
    // sequence depends only on (master seed, k) — never on the draw count
    // of the shots before it.  The batch driver relies on this to replay
    // 64 shots in lockstep bit-identically (lane k == shot k).
    rng_ = master_rng_.split(k);
    state_->reset_state();
}

void
LeakageDriver::reset_shot()
{
    start_shot(shot_index_++);
}

void
LeakageDriver::reset_for_block(Rng noise_rng)
{
    // Shot 0's stream goes live without being counted, as at
    // construction; the backend state is scrubbed too, since a reused
    // driver's backend holds whatever the previous block left.
    master_rng_ = noise_rng;
    shot_index_ = 0;
    start_shot(0);
}

void
LeakageDriver::set_leak(int q)
{
    if (leaked_[static_cast<size_t>(q)])
        return;
    leaked_[static_cast<size_t>(q)] = 1;
    state_->park_leaked(q);
}

void
LeakageDriver::depolarize1(int q, double p)
{
    if (rng_.bernoulli(p))
        state_->apply_pauli(q, 1 + rng_.uniform_int(3));
}

void
LeakageDriver::depolarize2(int q0, int q1)
{
    if (!rng_.bernoulli(np_.p))
        return;
    // One of the 15 non-identity two-qubit Paulis, uniformly.
    const uint32_t pauli = 1 + rng_.uniform_int(15);
    state_->apply_pauli(q0, pauli & 3u);
    state_->apply_pauli(q1, (pauli >> 2) & 3u);
}

void
LeakageDriver::leak_maybe(int q)
{
    if (rng_.bernoulli(np_.pl()))
        set_leak(q);
}

void
LeakageDriver::cnot(int control, int target)
{
    const bool cl = leaked(control);
    const bool tl = leaked(target);
    if (!cl && !tl) {
        state_->coherent_cnot(control, target);
    } else if (cl && !tl) {
        // Leaked control: transport with prob `mobility` (the leakage
        // population moves to the target), else the gate malfunctions and
        // the target is disturbed (paper §2.3).
        if (rng_.bernoulli(np_.mobility)) {
            set_leak(target);
            clear_leak(control);
        } else {
            malfunction(target, /*is_control=*/false);
        }
    } else if (!cl && tl) {
        // Leaked target: the control is disturbed.
        malfunction(control, /*is_control=*/true);
    }
    // Both leaked: gate does nothing observable in the subspace.

    // Gate-induced depolarizing and leakage on both operands.
    depolarize2(control, target);
    leak_maybe(control);
    leak_maybe(target);
}

void
LeakageDriver::malfunction(int partner, bool is_control)
{
    const bool partner_is_ancilla = partner >= code_->n_data();
    if (partner_is_ancilla && !np_.leaked_gate_backaction) {
        // IBM characterization (§2.3): the malfunction manifests as an
        // independent 50% flip of the ancilla's measured bit.  A Z-check
        // ancilla (CNOT target) is measured in Z: flip via X.  An X-check
        // ancilla (CNOT control, conjugated by H) is measured in X between
        // its Hadamards: flip via Z.  Neither component propagates through
        // the ancilla's remaining CNOTs.
        if (rng_.bit())
            state_->apply_pauli(partner, is_control ? kPauliZ : kPauliX);
        return;
    }
    // Full back-action: a uniformly random Pauli on the partner.
    state_->apply_pauli(partner, rng_.uniform_int(4));
}

void
LeakageDriver::apply_lrc_data(int q)
{
    // SWAP with the partner ancilla + reset: exchanges the leak flags,
    // then the ancilla side is reset (cleared).  What happens to the
    // computational state is the backend's approximation — a frame
    // backend preserves the frame through the gadget (state swapped back
    // after the ancilla reset), an exact backend rejoins with the parked
    // collapsed state — but the flag dynamics are the driver's alone.
    const int pc = lrc_partner(*code_, q);
    if (pc >= 0) {
        const int anc = code_->ancilla_of(pc);
        const bool anc_was_leaked = leaked(anc);
        clear_leak(q);
        clear_leak(anc);
        if (anc_was_leaked)
            set_leak(q);  // false-positive LRC pumps the partner's leak IN
    } else {
        clear_leak(q);
    }
    // Gadget noise: ~3 CNOTs of depolarizing + leakage induction.
    depolarize1(q, np_.lrc_depol());
    if (rng_.bernoulli(np_.lrc_leak()))
        set_leak(q);
}

void
LeakageDriver::apply_lrc_check(int c)
{
    const int anc = code_->ancilla_of(c);
    clear_leak(anc);
    state_->reset_z(anc);
    if (rng_.bernoulli(np_.lrc_leak()))
        set_leak(anc);
}

void
LeakageDriver::run_round(const LrcMasks& lrcs)
{
    const int n_data = code_->n_data();
    const int n_checks = code_->n_checks();
    if (lrcs.n_words != 1 ||
        lrcs.data.size() != static_cast<size_t>(n_data) ||
        lrcs.checks.size() != static_cast<size_t>(n_checks))
        throw std::invalid_argument(
            "LeakageDriver::run_round: masks not sized for this code at "
            "one word (LrcMasks::reset)");
    std::fill(meas_.begin(), meas_.end(), 0);
    std::fill(mlr_.begin(), mlr_.end(), 0);

    // 1. Lane 0's scheduled LRC gadgets (decided by the policy last
    //    round), in the LrcMasks order.
    for (int q = 0; q < n_data; ++q) {
        if (lrcs.data[static_cast<size_t>(q)] & 1u)
            apply_lrc_data(q);
    }
    for (int c = 0; c < n_checks; ++c) {
        if (lrcs.checks[static_cast<size_t>(c)] & 1u)
            apply_lrc_check(c);
    }

    // 2. Round-start data noise: depolarization + environment leakage.
    for (int q = 0; q < n_data; ++q) {
        depolarize1(q, np_.p);
        leak_maybe(q);
    }

    // 3. Execute the scheduled extraction circuit; gates skip leaked
    //    operands (their coherent action malfunctions instead).
    for (const Op& op : rc_->ops()) {
        switch (op.type) {
          case OpType::kResetZ:
            // Reset does not clear leakage, and a reset pulse has no
            // effect on a parked |2> state (no init-error draw either:
            // the draw sequence is leak-trajectory-dependent, identically
            // on every backend).
            if (!leaked(op.q0)) {
                state_->reset_z(op.q0);
                if (rng_.bernoulli(np_.p))
                    state_->apply_pauli(op.q0, kPauliX);  // flips to |1>
            }
            break;
          case OpType::kH:
            if (!leaked(op.q0))
                state_->hadamard(op.q0);
            depolarize1(op.q0, np_.p);
            break;
          case OpType::kCnot:
            cnot(op.q0, op.q1);
            break;
          case OpType::kMeasure: {
            const int anc = op.q0;
            meas_[static_cast<size_t>(op.mslot)] = readout(anc);
            // MLR leak flag with symmetric misclassification.
            LaneMask leak_flag = leaked(anc) ? 1 : 0;
            if (rng_.bernoulli(np_.mlr_err()))
                leak_flag ^= 1;
            mlr_[static_cast<size_t>(op.mslot)] = leak_flag;
            break;
          }
        }
    }

    // 4. Detector bits.
    for (int c = 0; c < n_checks; ++c) {
        if (first_round_ && code_->check(c).type == CheckType::kX) {
            // Round-0 X-check outcomes are random projections in a Z-basis
            // memory; they carry no detector information.
            det_[static_cast<size_t>(c)] = 0;
        } else {
            det_[static_cast<size_t>(c)] = meas_[static_cast<size_t>(c)] ^
                                           prev_meas_[static_cast<size_t>(c)];
        }
    }
    std::copy(meas_.begin(), meas_.end(), prev_meas_.begin());
    first_round_ = false;
}

LaneMask
LeakageDriver::readout(int q)
{
    // Two-level readout of a leaked qubit: random outcome.
    if (leaked(q))
        return rng_.bit() ? 1 : 0;
    LaneMask flip = state_->measure_z(q);
    if (rng_.bernoulli(np_.p))
        flip ^= 1;
    return flip;
}

const LaneMask*
LeakageDriver::final_data_measure()
{
    for (int q = 0; q < code_->n_data(); ++q)
        final_[static_cast<size_t>(q)] = readout(q);
    return final_.data();
}

// --- LeakageDriverSim: the scalar driver as a one-lane batch. ---

LeakageDriverSim::LeakageDriverSim(const CssCode& code,
                                   const RoundCircuit& rc,
                                   const NoiseParams& np, Rng noise_rng)
    : BatchSimulator(code), driver_(code, rc, np, noise_rng, this)
{
}

void
LeakageDriverSim::reset_shot_batch(int n_lanes)
{
    if (n_lanes != 1)
        throw std::invalid_argument(
            name() + ": one-lane backend cannot start a batch of " +
            std::to_string(n_lanes) + " shots");
    driver_.reset_shot();
}

void
LeakageDriverSim::inject_data_leak_lane(int lane, int q)
{
    if (lane != 0)
        throw std::invalid_argument(name() +
                                    ": one-lane backend has no lane " +
                                    std::to_string(lane));
    driver_.set_leak(q);
}

}  // namespace gld
