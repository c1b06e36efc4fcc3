#include "util/rng.hh"

#include <cmath>

#include "util/logging.hh"

namespace cachetime
{

namespace
{

std::uint64_t
splitMix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitMix64(sm);
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    if (bound == 0)
        panic("Rng::below called with bound 0");
    // Debiased multiply-shift rejection (Lemire).
    while (true) {
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        std::uint64_t lo = static_cast<std::uint64_t>(m);
        if (lo >= bound || lo >= (-bound) % bound)
            return static_cast<std::uint64_t>(m >> 64);
    }
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    if (lo > hi)
        panic("Rng::range called with lo > hi");
    std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
}

std::uint64_t
Rng::geometric(double p)
{
    if (p <= 0.0 || p > 1.0)
        panic("Rng::geometric requires p in (0, 1], got %f", p);
    if (p == 1.0)
        return 0;
    double u = uniform();
    // Avoid log(0).
    if (u <= 0.0)
        u = 0x1.0p-53;
    return static_cast<std::uint64_t>(
        std::floor(std::log(u) / std::log1p(-p)));
}

std::uint64_t
Rng::zipf(std::uint64_t n, double theta)
{
    if (n == 0)
        panic("Rng::zipf called with n == 0");
    // Inverse-CDF approximation of a power-law rank distribution:
    // cheap, deterministic, and close enough for locality modeling.
    double u = uniform();
    double alpha = 1.0 - theta;
    double rank = std::pow(u, 1.0 / alpha) * static_cast<double>(n);
    auto r = static_cast<std::uint64_t>(rank);
    return r >= n ? n - 1 : r;
}

double
Rng::normal()
{
    // Box-Muller; one fresh pair per call keeps the stream simple
    // and fully deterministic.
    double u1 = uniform();
    double u2 = uniform();
    if (u1 <= 0.0)
        u1 = 0x1.0p-53;
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * 3.141592653589793 * u2);
}

std::uint64_t
Rng::lognormalBelow(std::uint64_t n, double median, double sigma)
{
    if (n == 0)
        panic("Rng::lognormalBelow called with n == 0");
    double v = median * std::exp(sigma * normal());
    if (v < 0.0 || v >= static_cast<double>(n))
        return n - 1;
    return static_cast<std::uint64_t>(v);
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xa5a5a5a55a5a5a5aULL);
}

} // namespace cachetime
