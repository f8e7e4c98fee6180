#include "sim/op_profile.h"

namespace gld {

RoundOpProfile
profile_round_ops(const CssCode& code, const RoundCircuit& rc,
                  const NoiseParams& np, const LrcSchedule& lrcs,
                  uint64_t seed)
{
    LrcMasks none, masks;
    none.reset(code.n_data(), code.n_checks(), 1);
    masks.reset(code.n_data(), code.n_checks(), 1);
    masks.add_lane(0, lrcs);
    RoundOpProfile profile;
    {
        CountingState state;
        LeakageDriver driver(code, rc, np, Rng(seed), &state);
        driver.run_round(none);
        profile.quiet = state.counts();
    }
    {
        CountingState state;
        LeakageDriver driver(code, rc, np, Rng(seed), &state);
        driver.run_round(masks);
        profile.scheduled = state.counts();
    }
    profile.lrc_overhead = profile.scheduled - profile.quiet;
    return profile;
}

}  // namespace gld
