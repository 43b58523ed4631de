// Deterministic random number generation.
//
// Every stochastic element of the testbed (packet loss, website generation,
// rater behaviour) draws from an Rng forked from a master seed, so a whole
// experiment is reproducible from a single integer.
#pragma once

#include <cstdint>
#include <string_view>

namespace qperc {

/// xoshiro256++ generator seeded through SplitMix64.
///
/// Small, fast, and statistically strong enough for simulation workloads.
/// Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed);

  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() { return next_u64(); }
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);
  /// Normal deviate (Box–Muller, cached spare).
  double normal(double mean, double stddev);
  /// Log-normal deviate with the given parameters of the underlying normal.
  double lognormal(double mu, double sigma);
  /// Exponential deviate with the given mean.
  double exponential(double mean);
  /// Poisson deviate (Knuth for small lambda, normal approximation above 60).
  std::uint64_t poisson(double lambda);

  /// Derives an independent child generator. Children forked with distinct
  /// tags from the same parent state are decorrelated; forking does not
  /// perturb this generator's own stream.
  [[nodiscard]] Rng fork(std::uint64_t tag) const;
  /// Convenience: fork keyed by a string label (FNV-1a hashed).
  [[nodiscard]] Rng fork(std::string_view label) const;

 private:
  std::uint64_t state_[4];
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

/// FNV-1a 64-bit offset basis: the hash of the empty string.
inline constexpr std::uint64_t kFnv1aBasis = 0xCBF29CE484222325ULL;

/// FNV-1a 64-bit hash, used for stable string-keyed RNG forks. Passing a
/// previous result as `hash` continues it: fnv1a(b, fnv1a(a)) == fnv1a(a + b).
[[nodiscard]] std::uint64_t fnv1a(std::string_view s,
                                  std::uint64_t hash = kFnv1aBasis) noexcept;

}  // namespace qperc
