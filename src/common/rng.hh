/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * The simulator must be bit-reproducible across runs and platforms, so
 * all stochastic behaviour (workload synthesis, value generation) flows
 * through this self-contained xoshiro256** implementation rather than
 * std::mt19937 (whose distributions are not standardized).
 */

#ifndef NOSQ_COMMON_RNG_HH
#define NOSQ_COMMON_RNG_HH

#include <array>
#include <cstdint>

#include "common/logging.hh"

namespace nosq {

/** xoshiro256** by Blackman & Vigna; public-domain algorithm. */
class Rng
{
  public:
    /** Seed via splitmix64 so any 64-bit seed yields a good state. */
    explicit Rng(std::uint64_t seed = 1)
    {
        std::uint64_t x = seed;
        for (auto &word : state) {
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        nosq_assert(bound != 0, "Rng::below(0)");
        // Debiased via rejection sampling: a draw is accepted iff it
        // is at least 2^64 mod bound. That threshold is below bound,
        // so a draw >= bound is accepted before the threshold (a
        // second 64-bit division) is ever computed.
        std::uint64_t r = next();
        if (r < bound) {
            const std::uint64_t threshold = -bound % bound;
            while (r < threshold)
                r = next();
        }
        return r % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        nosq_assert(lo <= hi, "Rng::range lo > hi");
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state;
};

} // namespace nosq

#endif // NOSQ_COMMON_RNG_HH
