#ifndef GLD_NOISE_NOISE_MODEL_H_
#define GLD_NOISE_NOISE_MODEL_H_

namespace gld {

/**
 * Circuit noise model of the paper's §6 (Methodology).
 *
 * Base rate `p` drives: data-qubit depolarization at round start, 1q/2q gate
 * depolarizing after H/CNOT, readout flips, and reset (initialization)
 * errors.  Leakage occurs with probability pl = leak_ratio * p, both as
 * environment-driven injection on data qubits at round start and per 2q-gate
 * operand.  Leakage transport ("mobility", default 10%) moves leakage from a
 * leaked CNOT control to its target; otherwise the non-leaked partner of a
 * leaked gate receives a uniformly random Pauli (the IBM-characterized
 * 50% bit-flip behaviour of §2.3).  Multi-level readout (MLR) misreports the
 * leak flag with probability mlr_ratio * p in either direction.
 *
 * LRC gadget costs (SWAP-based reset, §2.4): extra depolarizing noise and
 * leakage-induction on the serviced qubit, scaled by `lrc_gate_factor`
 * (the gadget is ~3 CNOTs deep).
 */
struct NoiseParams {
    double p = 1e-3;            ///< base physical error rate
    double leak_ratio = 0.1;    ///< lr = pl / p (paper default 0.1)
    double mlr_ratio = 10.0;    ///< MLR error = mlr_ratio * p (paper: 10)
    double mobility = 0.1;      ///< leakage transport prob during CNOT
    double lrc_gate_factor = 3.0;  ///< LRC gadget depth in CNOT-equivalents
    /**
     * If true, a leaked CNOT deposits a full random Pauli on an ANCILLA
     * partner (which can propagate through its remaining CNOTs).  The
     * default (false) follows the paper's IBM characterization — the
     * malfunction shows up as an independent random flip of the ancilla's
     * measured bit.  Data-qubit partners always receive a full random
     * Pauli.  Ablation knob.
     */
    bool leaked_gate_backaction = false;

    /** Leakage probability per opportunity. */
    double pl() const { return leak_ratio * p; }
    /** MLR misclassification probability. */
    double mlr_err() const { return mlr_ratio * p; }
    /**
     * Absolute leakage probability per LRC gadget.  An LRC is a SWAP
     * through a just-measured ancilla plus a reset; strong readout drive
     * is a known leakage source (measurement-induced state transitions),
     * so the cost does NOT scale with the background leakage ratio.  The
     * default reproduces the paper's observation that unnecessary LRCs
     * can grow the leakage population (§3.3) and its Table 4 trend of a
     * larger GLADIATOR advantage at small lr.
     */
    double lrc_leak_prob = 3e-3;

    /** Depolarizing noise applied by one LRC gadget. */
    double lrc_depol() const { return lrc_gate_factor * p; }
    /** Leakage induced on a (non-leaked) qubit by one LRC gadget. */
    double lrc_leak() const { return lrc_leak_prob + lrc_gate_factor * pl(); }

    /** Paper defaults at a given p and lr. */
    static NoiseParams standard(double p = 1e-3, double lr = 0.1);

    /**
     * Throws std::invalid_argument naming the first bad field: p,
     * mobility and lrc_leak_prob must lie in [0, 1]; leak_ratio,
     * mlr_ratio and lrc_gate_factor must not be negative.  NaN is
     * refused in every field.
     */
    void validate() const;
};

}  // namespace gld

#endif  // GLD_NOISE_NOISE_MODEL_H_
