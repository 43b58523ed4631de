#include "util/rng.hpp"

#include <cmath>
#include <numbers>

namespace qperc {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

/// SplitMix64 step; used only for seeding and forking.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high-quality bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo >= hi) return lo;
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // Modulo bias is negligible for span << 2^64 (simulation use only).
  return lo + static_cast<std::int64_t>(next_u64() % span);
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::normal(double mean, double stddev) {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  double u1 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  spare_normal_ = radius * std::sin(angle);
  has_spare_normal_ = true;
  return mean + stddev * radius * std::cos(angle);
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

double Rng::exponential(double mean) {
  double u = uniform();
  while (u <= 1e-300) u = uniform();
  return -mean * std::log(u);
}

std::uint64_t Rng::poisson(double lambda) {
  if (lambda <= 0.0) return 0;
  if (lambda > 60.0) {
    // Normal approximation with continuity correction.
    const double draw = normal(lambda, std::sqrt(lambda));
    return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
  }
  const double threshold = std::exp(-lambda);
  std::uint64_t count = 0;
  double product = uniform();
  while (product > threshold) {
    ++count;
    product *= uniform();
  }
  return count;
}

Rng Rng::fork(std::uint64_t tag) const {
  // Mix the parent's full state with the tag through SplitMix64 so distinct
  // tags give decorrelated children without advancing the parent.
  std::uint64_t sm = state_[0] ^ rotl(state_[1], 13) ^ rotl(state_[2], 29) ^
                     rotl(state_[3], 47) ^ (tag * 0x9E3779B97F4A7C15ULL + 1);
  return Rng{splitmix64(sm)};
}

Rng Rng::fork(std::string_view label) const { return fork(fnv1a(label)); }

std::uint64_t fnv1a(std::string_view s, std::uint64_t hash) noexcept {
  for (const char c : s) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

}  // namespace qperc
