#ifndef GLD_CORE_POLICY_ERASER_H_
#define GLD_CORE_POLICY_ERASER_H_

#include "core/table_policy.h"

namespace gld {

/**
 * ERASER [Vittal+ MICRO'23], the prior closed-loop heuristic (paper §3.2):
 * a data qubit is flagged as leaked when at least 50% of its adjacent
 * syndrome bits flip in the current round (popcount >= ceil(k/2)); the +M
 * variant additionally LRCs MLR-flagged ancillas.  The rule is tabulated
 * per pattern class and runs on the same lookup kernel as GLADIATOR.
 *
 * On the surface code this flags 11/16 of the 4-bit patterns; on a color
 * code's 2-bit edge qubits it fires on ANY flip — the poor generalization
 * the paper dissects in §3.3.
 */
class EraserPolicy : public TablePolicy {
  public:
    EraserPolicy(const CodeContext& ctx, bool use_mlr);
    std::string name() const override
    {
        return use_mlr() ? "ERASER+M" : "ERASER";
    }

    /** The popcount trigger threshold for a pattern of width k. */
    static int threshold(int k) { return (k + 1) / 2; }
    /** ERASER's rule: does it flag k-bit pattern s? */
    static bool flags(uint32_t s, int k)
    {
        return __builtin_popcount(s) >= threshold(k);
    }
    /**
     * Number of k-bit patterns ERASER flags (e.g. 11 of 16 for k = 4).
     * Throws PatternWidthError beyond kMaxPatternBits.
     */
    static int flagged_count(int k);
};

}  // namespace gld

#endif  // GLD_CORE_POLICY_ERASER_H_
