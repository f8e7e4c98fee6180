#ifndef GLD_CORE_TABLE_POLICY_H_
#define GLD_CORE_TABLE_POLICY_H_

#include <memory>
#include <vector>

#include "core/pattern_table.h"
#include "core/policy.h"

namespace gld {

/**
 * The one decision kernel of the table-driven policies (ERASER,
 * GLADIATOR, GLADIATOR-D): every data qubit's observed-check pattern is
 * looked up in its class's flag table, and a flagged pattern schedules
 * an LRC for the next round.  The +M variants also LRC MLR-flagged
 * ancillas.
 *
 * Word-parallel evaluation is a sparse lane gather: per data qubit and
 * word, the OR of its observed checks' detector words marks the lanes
 * with a nonzero pattern; quiet lanes all take table[0], and only the
 * lanes that fired gather their key bit by bit and look it up.
 *
 * Two-round tables (GLADIATOR-D) key on (previous pattern << k) | this
 * pattern over a sliding window.  The per-lane window lives in
 * bit-planes: one K-word span per observed (qubit, bit) for the previous
 * pattern and one per qubit for "window holds a previous round".  A lane
 * that fires restarts its window — syndromes around the gadget are
 * transient and must not seed the next decision.
 */
class TablePolicy : public WordPolicy {
  public:
    /** The (possibly shared) tables driving this policy. */
    const std::shared_ptr<const PatternTableSet>& tables() const
    {
        return tables_;
    }

    void begin_batch(const LaneMask* active, int n_words) override;
    void observe_words(int round, const RoundWords& in,
                       LrcMasks* out) override;

  protected:
    /**
     * @param tables one table per pattern class of `ctx`, keyed by k bits
     *        (single-round) or 2k bits (two_round()) for a class of
     *        width k.
     */
    TablePolicy(const CodeContext& ctx,
                std::shared_ptr<const PatternTableSet> tables, bool use_mlr);

    bool use_mlr() const { return use_mlr_; }

  private:
    // The kernel bodies; KT > 0 fixes K at compile time, 0 reads it.
    template <int KT>
    void single_round(const RoundWords& in, LaneMask* data) const;
    template <int KT>
    void two_round(const RoundWords& in, LaneMask* data);

    std::shared_ptr<const PatternTableSet> tables_;
    bool use_mlr_;
    std::vector<const uint8_t*> table_;  ///< per data qubit; null at k=0
    std::vector<LaneMask> prev_;      ///< previous-pattern planes per CSR slot
    std::vector<LaneMask> has_prev_;  ///< window-primed span per data qubit
};

}  // namespace gld

#endif  // GLD_CORE_TABLE_POLICY_H_
