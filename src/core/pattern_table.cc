#include "core/pattern_table.h"

namespace gld {

PatternTableSet
PatternTableSet::build(const CodeContext& ctx, const NoiseParams& np,
                       const SpecModelOptions& opt, bool two_round)
{
    PatternTableSet out;
    out.two_round_ = two_round;
    for (const PatternClass& cls : ctx.classes()) {
        const PatternWeights w = two_round
                                     ? SpecModel::two_round(cls, np, opt)
                                     : SpecModel::single_round(cls, np, opt);
        out.tables_.push_back(SpecModel::label(w, opt.threshold));
        out.bits_.push_back(w.bits);
    }
    return out;
}

PatternTableSet
PatternTableSet::from_rule(const CodeContext& ctx,
                           bool (*flag)(uint32_t pattern, int k))
{
    PatternTableSet out;
    for (const PatternClass& cls : ctx.classes()) {
        check_pattern_width(cls.k_obs, /*two_round=*/false);
        std::vector<uint8_t> table(size_t{1} << cls.k_obs);
        for (uint32_t s = 0; s < table.size(); ++s)
            table[s] = flag(s, cls.k_obs) ? 1 : 0;
        out.tables_.push_back(std::move(table));
        out.bits_.push_back(cls.k_obs);
    }
    return out;
}

int
PatternTableSet::flagged_count(int cls) const
{
    int n = 0;
    for (uint8_t f : tables_[cls])
        n += f;
    return n;
}

}  // namespace gld
