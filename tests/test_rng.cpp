#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

namespace whatsup {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 2);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng root(99);
  Rng c1 = root.fork(7);
  Rng c2 = root.fork(7);
  Rng c3 = root.fork(8);
  EXPECT_EQ(c1.next_u64(), c2.next_u64());
  Rng c1b = root.fork(7);
  EXPECT_NE(c1b.next_u64(), c3.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto x = rng.uniform_int(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= x == -3;
    saw_hi |= x == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, IndexCoversRange) {
  Rng rng(17);
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.index(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(Rng, GammaMeanEqualsShape) {
  Rng rng(19);
  for (double shape : {0.5, 1.0, 3.0, 8.0}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += rng.gamma(shape);
    EXPECT_NEAR(sum / n, shape, 0.15 * shape + 0.05) << "shape=" << shape;
  }
}

TEST(Rng, DirichletSumsToOne) {
  Rng rng(23);
  const std::vector<double> alpha(6, 0.4);
  for (int trial = 0; trial < 100; ++trial) {
    const auto draw = rng.dirichlet(alpha);
    ASSERT_EQ(draw.size(), alpha.size());
    const double total = std::accumulate(draw.begin(), draw.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-9);
    for (double x : draw) EXPECT_GE(x, 0.0);
  }
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng rng(29);
  for (std::size_t n : {1u, 5u, 50u, 500u}) {
    for (std::size_t k : {0u, 1u, 3u, 50u}) {
      const auto sample = rng.sample_indices(n, k);
      EXPECT_EQ(sample.size(), std::min(n, static_cast<std::size_t>(k)));
      std::set<std::size_t> unique(sample.begin(), sample.end());
      EXPECT_EQ(unique.size(), sample.size());
      for (std::size_t s : sample) EXPECT_LT(s, n);
    }
  }
}

TEST(Rng, SampleIndicesUniformCoverage) {
  Rng rng(31);
  std::vector<int> counts(10, 0);
  for (int trial = 0; trial < 20000; ++trial) {
    for (std::size_t i : rng.sample_indices(10, 2)) counts[i]++;
  }
  for (int c : counts) EXPECT_NEAR(c, 4000, 400);
}

// A filled buffer carries the draws the returned vector does, in both
// regimes (Floyd for k <= n / 4, partial shuffle above), and leaves the
// generator in the same state; a reused buffer's old contents and
// capacity do not leak into the next sample.
TEST(Rng, SampleIndicesIntoBufferMatchesReturnedVector) {
  std::vector<std::size_t> buffer(300, 7);
  for (const auto& [n, k] : std::vector<std::pair<std::size_t, std::size_t>>{
           {100, 3}, {100, 25}, {100, 26}, {100, 100}, {20, 50}, {9, 0}, {0, 4}, {200, 40}, {12, 5}}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      Rng returned(seed), filled(seed);
      const std::vector<std::size_t> expected = returned.sample_indices(n, k);
      filled.sample_indices(n, k, buffer);
      ASSERT_EQ(buffer, expected) << "n=" << n << " k=" << k << " seed=" << seed;
      EXPECT_EQ(filled.next_u64(), returned.next_u64());
    }
  }
}

// Both regimes keep the draws of the original algorithm: Floyd's with a
// collision fallback to j, and a partial Fisher–Yates over [0, n).
TEST(Rng, SampleIndicesKeepsTheOriginalDraws) {
  const auto reference = [](Rng& rng, std::size_t n, std::size_t k) {
    k = std::min(k, n);
    std::vector<std::size_t> out;
    if (k == 0) return out;
    if (k * 4 <= n) {
      for (std::size_t j = n - k; j < n; ++j) {
        std::size_t t = rng.index(j + 1);
        if (std::find(out.begin(), out.end(), t) != out.end()) t = j;
        out.push_back(t);
      }
      return out;
    }
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), std::size_t{0});
    for (std::size_t i = 0; i < k; ++i) std::swap(all[i], all[i + rng.index(n - i)]);
    all.resize(k);
    return all;
  };
  std::vector<std::size_t> buffer;
  for (std::size_t n : {1, 4, 10, 37, 150}) {
    for (std::size_t k = 0; k <= n + 1; ++k) {
      Rng a(n * 1000 + k), b(n * 1000 + k);
      b.sample_indices(n, k, buffer);
      ASSERT_EQ(buffer, reference(a, n, k)) << "n=" << n << " k=" << k;
    }
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto copy = v;
  rng.shuffle(copy);
  EXPECT_FALSE(std::equal(v.begin(), v.end(), copy.begin()));  // vanishing prob
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, v);
}

TEST(Zipf, PmfMonotoneAndNormalized) {
  const ZipfDistribution zipf(20, 1.0);
  double total = 0.0;
  for (std::size_t r = 0; r < 20; ++r) {
    total += zipf.pmf(r);
    if (r > 0) EXPECT_LE(zipf.pmf(r), zipf.pmf(r - 1));
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_EQ(zipf.pmf(20), 0.0);
}

TEST(Zipf, SamplingMatchesPmf) {
  Rng rng(41);
  const ZipfDistribution zipf(10, 1.2);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[zipf(rng)]++;
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(static_cast<double>(counts[r]) / n, zipf.pmf(r), 0.01) << "rank " << r;
  }
}

// Property sweep: the URBG contract holds for a range of seeds.
class RngSeedProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedProperty, UniformIntNeverEscapesBounds) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const auto x = rng.uniform_int(0, 9);
    ASSERT_GE(x, 0);
    ASSERT_LE(x, 9);
  }
}

TEST_P(RngSeedProperty, ForkDiffersFromParentStream) {
  Rng parent(GetParam());
  Rng child = parent.fork(1);
  Rng parent2(GetParam());
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += child.next_u64() == parent2.next_u64();
  EXPECT_LT(equal, 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedProperty,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 0xdeadbeefULL,
                                           0xffffffffffffffffULL));

}  // namespace
}  // namespace whatsup
