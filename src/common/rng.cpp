#include "common/rng.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace whatsup {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next_u64() {
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

Rng Rng::fork(std::uint64_t stream) const {
  // Mix the current state with the stream id through splitmix so children
  // are decorrelated from the parent and from each other.
  std::uint64_t s = state_[0] ^ (state_[2] + 0x632be59bd9b4e019ULL);
  s ^= splitmix64(stream);
  std::uint64_t mixed = s;
  return Rng{splitmix64(mixed) ^ stream};
}

Rng Rng::fork(std::uint64_t stream, std::uint64_t substream) const {
  // Chain both counters through independent splitmix mixes; a single xor
  // of the raw counters would collide on (a^b) pairs.
  std::uint64_t s = state_[0] ^ (state_[2] + 0x632be59bd9b4e019ULL);
  s ^= splitmix64(stream);
  std::uint64_t t = substream ^ 0x94d049bb133111ebULL;
  s += splitmix64(t);
  return Rng{splitmix64(s) ^ stream ^ rotl(substream, 32)};
}

double Rng::uniform() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Lemire-style rejection to avoid modulo bias.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * range;
  auto low = static_cast<std::uint64_t>(m);
  if (low < range) {
    const std::uint64_t threshold = -range % range;
    while (low < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * range;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::int64_t>(m >> 64);
}

std::size_t Rng::index(std::size_t n) {
  assert(n > 0);
  return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  // Marsaglia polar method.
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return mean + stddev * u * factor;
}

double Rng::exponential(double rate) {
  return -std::log(1.0 - uniform()) / rate;
}

double Rng::gamma(double shape) {
  assert(shape > 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia–Tsang trick).
    const double u = uniform();
    return gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
  }
}

std::vector<double> Rng::dirichlet(std::span<const double> alpha) {
  std::vector<double> draw(alpha.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    draw[i] = gamma(alpha[i]);
    sum += draw[i];
  }
  if (sum <= 0.0) {
    std::fill(draw.begin(), draw.end(), 1.0 / static_cast<double>(draw.size()));
    return draw;
  }
  for (double& x : draw) x /= sum;
  return draw;
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  std::vector<std::size_t> out;
  sample_indices(n, k, out);
  return out;
}

void Rng::sample_indices(std::size_t n, std::size_t k, std::vector<std::size_t>& out) {
  out.clear();
  k = std::min(k, n);
  if (k == 0) return;
  // Floyd's algorithm for k << n; partial shuffle otherwise.
  if (k * 4 <= n) {
    out.reserve(k);
    for (std::size_t j = n - k; j < n; ++j) {
      std::size_t t = index(j + 1);
      if (std::find(out.begin(), out.end(), t) != out.end()) t = j;
      out.push_back(t);
    }
    return;
  }
  out.resize(n);
  std::iota(out.begin(), out.end(), std::size_t{0});
  for (std::size_t i = 0; i < k; ++i) {
    std::swap(out[i], out[i + index(n - i)]);
  }
  out.resize(k);
}

ZipfDistribution::ZipfDistribution(std::size_t n, double exponent) {
  cdf_.resize(n);
  double cum = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    cum += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf_[r] = cum;
  }
  for (double& c : cdf_) c /= cum;
}

std::size_t ZipfDistribution::operator()(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(std::distance(cdf_.begin(), it));
}

double ZipfDistribution::pmf(std::size_t rank) const {
  if (rank >= cdf_.size()) return 0.0;
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

}  // namespace whatsup
