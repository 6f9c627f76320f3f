#include "sim/rng.hpp"

#include <cmath>
#include <limits>
#include <numbers>

namespace sigcomp::sim {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t v, int k) noexcept {
  return (v << k) | (v >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream) noexcept {
  // Mix seed and stream so that nearby values yield unrelated states.
  std::uint64_t x = seed ^ (0xD2B74407B1CE6E93ULL * (stream + 1));
  for (auto& s : state_) s = splitmix64(x);
  // Avoid the all-zero state (cannot occur after splitmix, but be explicit).
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 high-quality bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  const double v = lo + (hi - lo) * uniform();
  // lo + (hi - lo) * u can round up to exactly hi (e.g. when hi - lo spans
  // few representable values); clamp to keep the documented [lo, hi).
  if (v >= hi) return std::nextafter(hi, lo);
  return v;
}

std::uint64_t Rng::uniform_int(std::uint64_t n) noexcept {
  if (n == 0) return 0;
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    const std::uint64_t v = next_u64();
    if (v >= threshold) return v % n;
  }
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::exponential(double mean) noexcept {
  if (mean <= 0.0) return 0.0;
  // -mean * log(1 - U); 1 - U in (0, 1].
  return -mean * std::log(1.0 - uniform());
}

double Rng::normal() noexcept {
  if (!std::isnan(cached_normal_)) {
    const double cached = cached_normal_;
    cached_normal_ = std::numeric_limits<double>::quiet_NaN();
    return cached;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 == 0.0);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  return radius * std::cos(angle);
}

double Rng::pareto(double shape, double scale) noexcept {
  if (shape <= 0.0 || scale <= 0.0) return 0.0;
  double u = 0.0;
  do {
    u = uniform();
  } while (u == 0.0);
  return scale * std::pow(u, -1.0 / shape);
}

double Rng::pareto_with_mean(double shape, double mean) noexcept {
  if (shape <= 1.0 || mean <= 0.0) return 0.0;
  const double scale = mean * (shape - 1.0) / shape;
  return pareto(shape, scale);
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(mu + sigma * normal());
}

double Rng::lognormal_with_mean(double mean, double sigma) noexcept {
  if (mean <= 0.0) return 0.0;
  const double mu = std::log(mean) - 0.5 * sigma * sigma;
  return lognormal(mu, sigma);
}

double sample(Rng& rng, Distribution dist, double mean) noexcept {
  switch (dist) {
    case Distribution::kDeterministic: return mean < 0.0 ? 0.0 : mean;
    case Distribution::kExponential: return rng.exponential(mean);
  }
  return mean;
}

}  // namespace sigcomp::sim
