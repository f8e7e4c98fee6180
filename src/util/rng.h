#ifndef GLD_UTIL_RNG_H_
#define GLD_UTIL_RNG_H_

#include <cstdint>

namespace gld {

/**
 * One xoshiro256** step over a state held in four words: advances
 * (s0, s1, s2, s3) and returns the output word.  This is the only copy
 * of the update rule: Rng steps its own state through it, and the batch
 * engine's lane bank (sim/batch_driver.h) steps 64..512 lanes of
 * structure-of-arrays state through it, so a lane's draws are
 * bit-identical to Rng's.  The x*5 and x*9 multiplies are spelled as
 * shift-adds because SSE2 has no 64-bit multiply, and GCC vectorizes the
 * lane loops only in this form.
 */
inline uint64_t
xoshiro_step(uint64_t& s0, uint64_t& s1, uint64_t& s2, uint64_t& s3)
{
    const uint64_t m5 = s1 + (s1 << 2);
    const uint64_t r7 = (m5 << 7) | (m5 >> 57);
    const uint64_t result = r7 + (r7 << 3);
    const uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = (s3 << 45) | (s3 >> 19);
    return result;
}

/**
 * Small, fast, deterministic pseudo-random generator (xoshiro256**).
 *
 * Used for all Monte-Carlo sampling in the simulator and policies.  A
 * dedicated implementation (rather than std::mt19937_64) keeps shot loops
 * cheap and makes cross-platform reproducibility explicit.
 */
class Rng {
  public:
    /** Seeds the state via splitmix64 so that any 64-bit seed is usable. */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Returns the next raw 64-bit word. */
    uint64_t next_u64() { return xoshiro_step(s_[0], s_[1], s_[2], s_[3]); }

    /** Returns a uniform double in [0, 1). */
    double uniform() { return uniform_of(next_u64()); }

    /** Returns true with probability p (p outside [0,1] is clamped). */
    bool bernoulli(double p)
    {
        return bernoulli_of(p, [this] { return next_u64(); });
    }

    /** Returns a uniform integer in [0, n); n must be > 0. */
    uint32_t uniform_int(uint32_t n) { return uniform_int_of(next_u64(), n); }

    /** Returns a single uniformly random bit. */
    bool bit() { return bit_of(next_u64()); }

    // The draw formulas over raw words, shared with every other stream
    // that must draw exactly as an Rng does (the batch engine's lanes
    // and its sparse event stream).

    /** uniform(): the word's top 53 bits as a mantissa in [0, 1). */
    static double uniform_of(uint64_t x)
    {
        return static_cast<double>(x >> 11) * 0x1.0p-53;
    }

    /**
     * uniform_int(): Lemire's multiply-shift; the bias is negligible
     * (< 2^-32) for the n used here.
     */
    static uint32_t uniform_int_of(uint64_t x, uint32_t n)
    {
        return static_cast<uint32_t>((static_cast<__uint128_t>(x) * n) >> 64);
    }

    /** bit(): the word's top bit. */
    static bool bit_of(uint64_t x) { return (x >> 63) != 0; }

    /**
     * bernoulli(): p <= 0 and p >= 1 decide without calling `next`, so
     * they consume no draw; otherwise one word, compared as uniform() < p.
     */
    template <typename Next>
    static bool bernoulli_of(double p, Next&& next)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform_of(next()) < p;
    }

    /**
     * Derives an independent stream for a worker thread / shot block.
     * @param stream_id distinct id per derived stream.
     */
    Rng split(uint64_t stream_id) const;

    /**
     * Copies the four xoshiro256** state words out.  The batch backend's
     * lane-RNG bank stores the states of 64 split streams
     * structure-of-arrays and steps them with xoshiro_step too, so a
     * lane's draw sequence is bit-identical to this object's
     * (sim/batch_driver.h).
     */
    void export_state(uint64_t out[4]) const
    {
        for (int i = 0; i < 4; ++i)
            out[i] = s_[i];
    }

  private:
    uint64_t s_[4];
    uint64_t seed_;
};

}  // namespace gld

#endif  // GLD_UTIL_RNG_H_
