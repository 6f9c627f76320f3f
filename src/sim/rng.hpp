// Random-number substrate: xoshiro256** seeded through SplitMix64, with
// independent streams per (seed, stream) pair.  Self-contained so that
// simulation results are bit-reproducible across standard libraries
// (std::mt19937 distribution implementations vary between vendors).
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace sigcomp::sim {

/// xoshiro256** by Blackman & Vigna -- fast, high-quality 64-bit generator.
class Rng {
 public:
  /// Creates stream `stream` of the generator family identified by `seed`.
  /// Different (seed, stream) pairs yield statistically independent streams.
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0) noexcept;

  /// Next raw 64-bit value.
  std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).  Requires lo < hi.  The half-open contract
  /// holds even when rounding of lo + (hi - lo) * u lands on hi exactly.
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n).  Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  bool bernoulli(double p) noexcept;

  /// Exponential variate with the given mean (mean <= 0 returns 0).
  double exponential(double mean) noexcept;

  /// Standard-normal variate (Box-Muller; cached second value).
  double normal() noexcept;

  /// Pareto variate with tail index `shape` (> 0) and minimum `scale` (> 0):
  /// P(X > x) = (scale/x)^shape for x >= scale.  Heavy-tailed for shape <= 2;
  /// the mean exists only for shape > 1 (scale * shape / (shape - 1)).
  double pareto(double shape, double scale) noexcept;

  /// Pareto variate with tail index `shape` (> 1) parameterized by its mean.
  double pareto_with_mean(double shape, double mean) noexcept;

  /// Log-normal variate with log-scale parameters mu and sigma.
  double lognormal(double mu, double sigma) noexcept;

  /// Log-normal variate with the given mean and log-scale spread sigma
  /// (mu = ln(mean) - sigma^2 / 2).
  double lognormal_with_mean(double mean, double sigma) noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
  /// Box-Muller's second value, or NaN when none is cached: both values of
  /// a pair are always finite, so NaN is free as the "empty" mark.
  double cached_normal_ = std::numeric_limits<double>::quiet_NaN();
};

// A farm session holds five to seven streams, so every byte here counts
// per session.
static_assert(sizeof(Rng) <= 40, "an Rng is its state plus one double");

/// How a protocol timer or channel delay is drawn.
enum class Distribution {
  kDeterministic,  ///< always exactly the mean (what real protocols do)
  kExponential,    ///< exponential with the given mean (what the model assumes)
};

/// Draws a non-negative sample with the given mean under `dist`.
[[nodiscard]] double sample(Rng& rng, Distribution dist, double mean) noexcept;

}  // namespace sigcomp::sim
