#ifndef GLD_CORE_SPEC_MODEL_H_
#define GLD_CORE_SPEC_MODEL_H_

#include <cstdint>
#include <vector>

#include "core/code_context.h"
#include "noise/noise_model.h"

namespace gld {

/** Tuning knobs of the offline GLADIATOR graph model (paper §4.2). */
struct SpecModelOptions {
    /**
     * Labeling threshold θ: a pattern is flagged as leakage iff
     * W_L > θ * W_NL (paper: "greater by a threshold factor").  The
     * default trades a little of the false-positive headroom back for
     * sensitivity (8-9/16 bulk patterns flagged, the paper's §1 count).
     */
    double threshold = 0.25;
    /**
     * Prior on persistent (not-yet-mitigated) leakage, expressed as an
     * expected leaked lifetime in rounds: π = pl * persist_lifetime.
     * This is the calibration hook that adapts the model to the observed
     * leakage population.  The default matches the paper's design target
     * of classifying leakage "within two rounds from the occurrence"
     * (§4.2 footnote); the ablation bench sweeps it.
     */
    double persist_lifetime = 10.0;
    /**
     * Include the round-(r-1) Pauli "tail" signatures (the complement
     * pattern a previous-round error leaves in this round's detectors) in
     * the single-round non-leakage graph.  Default off — matches the
     * paper's single-round exposition; swept by the ablation bench.
     */
    bool include_prior_tails = false;
    /** Highest order of combined non-leakage events modeled (1 or 2). */
    int max_order = 2;
    /**
     * Prior lifetime (rounds) for leakage of a NEIGHBOURING qubit or the
     * slot's ancilla.  Such leakage randomizes only the shared bits and
     * should trigger the neighbour's own mitigation (or the MLR path),
     * so it counts on the non-leakage side of this qubit's graph.  Kept
     * short by default: the neighbour's own full-width signature catches
     * it quickly.
     */
    double neighbor_leak_lifetime = 0.5;
};

/**
 * Accumulated transition weights onto each syndrome-pattern node: the
 * leakage super-edge W_L and non-leakage super-edge W_NL of Fig 6(c).
 * `bits` is k for single-round tables and 2k for the two-round
 * (GLADIATOR-D) tables, where the two-round key is (s_r << k) | s_{r+1}.
 */
struct PatternWeights {
    int bits = 0;
    std::vector<double> w_leak;
    std::vector<double> w_nonleak;
};

/**
 * The offline stage of GLADIATOR: builds the code- and noise-aware
 * error-propagation graph for one data-qubit class and labels its pattern
 * nodes (paper §4.2).
 *
 * Events enumerated (weights from NoiseParams):
 *  - non-leakage, 1st order: X/Y/Z onsets on the data qubit at every
 *    inter-slot stage (round-start depolarization + per-CNOT marginals),
 *    propagated type-aware through the scheduled slots; single ancilla-bit
 *    flips (measurement, reset, gate marginals on the check's ancilla,
 *    previous-round measurement).
 *  - non-leakage, 2nd order: all pairs of the above.
 *  - leakage: onset before each slot (environment at stage 0, gate-induced
 *    at later stages) randomizing all later slots uniformly; persistent
 *    leakage from earlier rounds randomizing every observed bit.
 *
 * The two-round variant additionally models the deterministic second-round
 * signature of Pauli faults vs. the uniformly random second round of a
 * still-leaked qubit (Fig 6(d)) — the core of GLADIATOR-D.
 */
class SpecModel {
  public:
    // Both builders throw PatternWidthError (core/code_context.h) for a
    // class wider than kMaxPatternBits observed bits.
    static PatternWeights single_round(const PatternClass& cls,
                                       const NoiseParams& np,
                                       const SpecModelOptions& opt);

    static PatternWeights two_round(const PatternClass& cls,
                                    const NoiseParams& np,
                                    const SpecModelOptions& opt);

    /**
     * Labels nodes: flag[s] = (s != 0) && W_L(s) > threshold * W_NL(s).
     */
    static std::vector<uint8_t> label(const PatternWeights& w,
                                      double threshold);
};

}  // namespace gld

#endif  // GLD_CORE_SPEC_MODEL_H_
