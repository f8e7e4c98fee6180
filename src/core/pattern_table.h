#ifndef GLD_CORE_PATTERN_TABLE_H_
#define GLD_CORE_PATTERN_TABLE_H_

#include <cstdint>
#include <vector>

#include "core/spec_model.h"

namespace gld {

/**
 * The output of GLADIATOR's offline stage: one leakage-flag lookup table
 * per data-qubit class (paper §4.2: "a lookup table of syndrome patterns
 * that strongly indicate leakage"), single-round (GLADIATOR) or two-round
 * (GLADIATOR-D) keyed.
 *
 * Recalibration to new noise (the adaptability story of §4.3) is simply
 * `build()` with updated NoiseParams: the graph structure is re-derived
 * from the same circuit, only the edge weights change.
 */
class PatternTableSet {
  public:
    /**
     * Builds the tables for every class of `ctx`.  Throws
     * PatternWidthError if a class is wider than kMaxPatternBits.
     */
    static PatternTableSet build(const CodeContext& ctx,
                                 const NoiseParams& np,
                                 const SpecModelOptions& opt,
                                 bool two_round);

    /**
     * Single-round tables flagging exactly the patterns `flag(pattern,
     * k)` accepts, for every class of `ctx` (k = the class's width) —
     * a fixed rule such as ERASER's popcount threshold as a table.
     * Throws PatternWidthError like build().
     */
    static PatternTableSet from_rule(const CodeContext& ctx,
                                     bool (*flag)(uint32_t pattern, int k));

    bool two_round() const { return two_round_; }

    /** Leak flag for a class's pattern key. */
    bool is_leak(int cls, uint32_t pattern_key) const
    {
        return tables_[cls][pattern_key] != 0;
    }

    /** Number of flagged patterns in a class's table. */
    int flagged_count(int cls) const;

    /** Pattern width (bits) of a class's table key. */
    int bits(int cls) const { return bits_[cls]; }

    const std::vector<uint8_t>& table(int cls) const { return tables_[cls]; }
    int n_classes() const { return static_cast<int>(tables_.size()); }

  private:
    bool two_round_ = false;
    std::vector<std::vector<uint8_t>> tables_;
    std::vector<int> bits_;
};

}  // namespace gld

#endif  // GLD_CORE_PATTERN_TABLE_H_
