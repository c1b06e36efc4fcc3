/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * The synthetic workload generator must produce bit-identical traces
 * on every platform and compiler, so cachetime carries its own small
 * generator (xoshiro256**) and its own distribution helpers instead
 * of relying on <random>, whose distribution implementations are not
 * standardized across library vendors.
 */

#ifndef CACHETIME_UTIL_RNG_HH
#define CACHETIME_UTIL_RNG_HH

#include <cstdint>

namespace cachetime
{

/**
 * xoshiro256** pseudo-random generator with SplitMix64 seeding.
 *
 * Small, fast, and high quality; every stream is fully determined by
 * its 64-bit seed.  The per-reference draws (next(), uniform(),
 * chance()) are inline: the synthetic generator makes tens of
 * millions of them per trace.
 */
class Rng
{
  public:
    /** Construct a generator from a 64-bit seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** @return the next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** @return a uniform integer in [0, bound), bound > 0. */
    std::uint64_t below(std::uint64_t bound);

    /** @return a uniform integer in [lo, hi] inclusive. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** @return a uniform double in [0, 1). */
    double uniform() { return (next() >> 11) * 0x1.0p-53; }

    /** @return true with probability p (clamped to [0,1]). */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * Sample a geometric distribution: the number of failures before
     * the first success with success probability p in (0, 1].
     */
    std::uint64_t geometric(double p);

    /**
     * Sample an (approximate) Zipf-like rank in [0, n): small ranks
     * are much more likely than large ones.  Used to model temporal
     * locality of data working sets.
     *
     * @param n     number of distinct items
     * @param theta skew in (0, 1); larger is more skewed
     */
    std::uint64_t zipf(std::uint64_t n, double theta);

    /** @return a standard normal variate (Box-Muller). */
    double normal();

    /**
     * Sample a lognormal value clamped to [0, n): exp(ln(median) +
     * sigma * Z).  Used for LRU stack distances, whose distribution
     * in real programs has a lognormal-like body and tail.
     */
    std::uint64_t lognormalBelow(std::uint64_t n, double median,
                                 double sigma);

    /** Fork a statistically independent child stream. */
    Rng split();

    /** Copy the four state words out (checkpoint serialization). */
    void
    state(std::uint64_t out[4]) const
    {
        for (int i = 0; i < 4; ++i)
            out[i] = s_[i];
    }

    /** Restore a state captured by state(). */
    void
    setState(const std::uint64_t in[4])
    {
        for (int i = 0; i < 4; ++i)
            s_[i] = in[i];
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace cachetime

#endif // CACHETIME_UTIL_RNG_HH
