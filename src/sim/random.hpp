// Seeded random source for scenarios.
//
// Every stochastic decision in a scenario (flow inter-arrivals, probe
// spacing jitter, RED marking coin flips, start-time permutations) draws
// from one Rng so a (config, seed) pair fully determines the packet trace.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "sim/annotations.hpp"
#include "sim/time.hpp"

namespace hwatch::sim {

/// Mixes a pair of words into one well-distributed 64-bit value with the
/// splitmix64 finalizer: per-point sweep seeds, per-shard context seeds
/// and span-tracer flow keys.  Deterministic and platform-stable; the
/// +1 keeps index 0 of base 0 away from the all-zero fixed point.
constexpr std::uint64_t mix64(std::uint64_t base, std::uint64_t index) {
  std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

class HWATCH_SHARD_CONFINED Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() { return unit_(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Exponential with the given mean (> 0).
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Exponential inter-arrival expressed directly in simulated time.
  TimePs exponential_time(TimePs mean) {
    return static_cast<TimePs>(exponential(static_cast<double>(mean)));
  }

  /// Bounded Pareto (shape, lo, hi]; heavy-tailed flow sizes.
  double bounded_pareto(double shape, double lo, double hi);

  /// True with probability p.
  bool chance(double p) { return uniform() < p; }

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent child stream (e.g. one per traffic source).
  Rng fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

}  // namespace hwatch::sim
