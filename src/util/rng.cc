#include "util/rng.h"

namespace gld {

namespace {

/** splitmix64 step, used for seeding xoshiro state. */
uint64_t
splitmix64(uint64_t& x)
{
    x += 0x9E3779B97F4A7C15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) : seed_(seed)
{
    uint64_t x = seed;
    for (auto& s : s_)
        s = splitmix64(x);
    // Avoid the all-zero state (cannot occur from splitmix64, but be safe).
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

Rng
Rng::split(uint64_t stream_id) const
{
    // Mix the original seed with the stream id through splitmix64.
    uint64_t x = seed_ ^ (0xA5A5A5A55A5A5A5Aull + stream_id * 0x9E3779B97F4A7C15ull);
    return Rng(splitmix64(x));
}

}  // namespace gld
