// Deterministic random-number generation for the simulator.
//
// All randomness in a run flows from a single seeded root `Rng`; per-node /
// per-subsystem streams are derived with `fork`, so simulations are exactly
// reproducible regardless of evaluation order. The engine never touches
// global RNG state.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace whatsup {

// xoshiro256** with splitmix64 seeding. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return next_u64(); }

  std::uint64_t next_u64();

  // Derives an independent, deterministic child stream. Forking the same
  // parent with the same `stream` always yields the same child.
  [[nodiscard]] Rng fork(std::uint64_t stream) const;

  // Two-level counter-based fork: the child is a pure function of the
  // parent STATE and (stream, substream), so a pristine root forked with
  // (node, cycle) yields the same generator no matter how many draws any
  // other stream has consumed. This is the engine's per-node per-cycle
  // reseed primitive (see docs/architecture.md).
  [[nodiscard]] Rng fork(std::uint64_t stream, std::uint64_t substream) const;

  // Uniform real in [0, 1).
  double uniform();
  // Uniform real in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  // Uniform index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  bool bernoulli(double p);
  double normal(double mean = 0.0, double stddev = 1.0);
  double exponential(double rate = 1.0);
  // Marsaglia–Tsang gamma(shape, 1). Requires shape > 0.
  double gamma(double shape);
  // Symmetric-or-not Dirichlet draw; `alpha[i] > 0`.
  std::vector<double> dirichlet(std::span<const double> alpha);

  // Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    shuffle(std::span<T>(v));
  }

  // k distinct indices sampled uniformly from [0, n) (k clamped to n).
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);
  // The same draws into `out` (cleared first), so a caller that keeps the
  // buffer allocates nothing once it has grown. The partial-shuffle regime
  // (k > n / 4) uses n slots of it.
  void sample_indices(std::size_t n, std::size_t k, std::vector<std::size_t>& out);

  // Uniformly chosen element of a non-empty span.
  template <typename T>
  const T& choice(std::span<const T> items) {
    return items[index(items.size())];
  }

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

// Zipf distribution over {0, .., n-1} with exponent s, via precomputed CDF.
// Rank 0 is the most probable outcome.
class ZipfDistribution {
 public:
  ZipfDistribution(std::size_t n, double exponent);
  std::size_t operator()(Rng& rng) const;
  double pmf(std::size_t rank) const;
  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace whatsup
