#include "core/policy_eraser.h"

namespace gld {

EraserPolicy::EraserPolicy(const CodeContext& ctx, bool use_mlr)
    : TablePolicy(ctx,
                  std::make_shared<const PatternTableSet>(
                      PatternTableSet::from_rule(ctx, &EraserPolicy::flags)),
                  use_mlr)
{
}

int
EraserPolicy::flagged_count(int k)
{
    check_pattern_width(k, /*two_round=*/false);
    int n = 0;
    for (uint32_t s = 0; s < (1u << k); ++s) {
        if (flags(s, k))
            ++n;
    }
    return n;
}

}  // namespace gld
