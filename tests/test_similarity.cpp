#include "profile/similarity.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "obs/registry.hpp"
#include "profile/compact.hpp"

namespace whatsup {
namespace {

Profile liked(std::initializer_list<ItemId> likes,
              std::initializer_list<ItemId> dislikes = {}) {
  Profile p;
  for (ItemId id : likes) p.set(id, 0, 1.0);
  for (ItemId id : dislikes) p.set(id, 0, 0.0);
  return p;
}

// --- WUP metric (paper §II) ------------------------------------------------

TEST(WupMetric, MatchesClosedFormOnBinaryProfiles) {
  // n likes {1,2,3}; c rates {1,2,4}, likes {1,2}.
  // common likes = 2; liked-by-n rated-by-c = 2; liked by c = 2.
  const Profile n = liked({1, 2, 3});
  const Profile c = liked({1, 2}, {4});
  EXPECT_NEAR(wup_similarity(n, c), 2.0 / (std::sqrt(2.0) * std::sqrt(2.0)), 1e-12);
}

TEST(WupMetric, PenalizesCandidatesWhoDislikeWhatSubjectLikes) {
  const Profile n = liked({1, 2, 3, 4});
  const Profile agreeing = liked({1, 2});            // likes 2 of n's items
  const Profile spammy = liked({1, 2}, {3, 4});      // same likes, but dislikes the rest
  EXPECT_GT(wup_similarity(n, agreeing), wup_similarity(n, spammy));
}

TEST(WupMetric, FavorsRestrictiveCandidates) {
  // Both candidates like the two items n likes, but one likes 6 extra items.
  const Profile n = liked({1, 2});
  const Profile restrictive = liked({1, 2});
  const Profile promiscuous = liked({1, 2, 10, 11, 12, 13, 14, 15});
  EXPECT_GT(wup_similarity(n, restrictive), wup_similarity(n, promiscuous));
}

TEST(WupMetric, ColdStartSmallProfilesScoreHigh) {
  // A joining node with a tiny popular profile is attractive to others —
  // the §II-D property that integrates newcomers quickly.
  const Profile established = liked({1, 2, 3, 4, 5, 6, 7, 8});
  const Profile newcomer = liked({1});           // one popular common item
  const Profile peer = liked({1, 20, 21, 22, 23, 24, 25, 26});
  EXPECT_GT(wup_similarity(established, newcomer), wup_similarity(established, peer));
}

TEST(WupMetric, AsymmetricByDesign) {
  const Profile a = liked({1, 2, 3, 4, 5, 6});
  const Profile b = liked({1, 2});
  EXPECT_NE(wup_similarity(a, b), wup_similarity(b, a));
}

TEST(WupMetric, PerfectMatchIsOne) {
  const Profile p = liked({1, 2, 3});
  EXPECT_DOUBLE_EQ(wup_similarity(p, p), 1.0);
}

TEST(WupMetric, DisjointProfilesScoreZero) {
  EXPECT_EQ(wup_similarity(liked({1, 2}), liked({3, 4})), 0.0);
}

TEST(WupMetric, EmptyProfilesScoreZero) {
  EXPECT_EQ(wup_similarity(Profile{}, liked({1})), 0.0);
  EXPECT_EQ(wup_similarity(liked({1}), Profile{}), 0.0);
  EXPECT_EQ(wup_similarity(Profile{}, Profile{}), 0.0);
}

TEST(WupMetric, WorksWithRealValuedItemProfiles) {
  Profile item;  // item profile with fractional path-aggregated scores
  item.set(1, 0, 0.75);
  item.set(2, 0, 0.25);
  const Profile user = liked({1}, {2});
  const double s = wup_similarity(item, user);
  EXPECT_GT(s, 0.0);
  EXPECT_LE(s, 1.0);
}

// --- Cosine ---------------------------------------------------------------

TEST(Cosine, SymmetricAndBounded) {
  const Profile a = liked({1, 2, 3});
  const Profile b = liked({2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(cosine_similarity(a, b), cosine_similarity(b, a));
  EXPECT_NEAR(cosine_similarity(a, b), 2.0 / (std::sqrt(3.0) * std::sqrt(4.0)), 1e-12);
}

TEST(Cosine, IdenticalIsOne) {
  const Profile p = liked({1, 2, 3});
  EXPECT_DOUBLE_EQ(cosine_similarity(p, p), 1.0);
}

// --- Jaccard / overlap / Pearson -------------------------------------------

TEST(Jaccard, CountsLikedSets) {
  const Profile a = liked({1, 2, 3});
  const Profile b = liked({2, 3, 4});
  EXPECT_DOUBLE_EQ(jaccard_similarity(a, b), 2.0 / 4.0);
  EXPECT_DOUBLE_EQ(jaccard_similarity(a, a), 1.0);
  EXPECT_EQ(jaccard_similarity(Profile{}, Profile{}), 0.0);
}

TEST(Overlap, BoundedAndOneOnSubset) {
  const Profile small = liked({1, 2});
  const Profile big = liked({1, 2, 3, 4, 5});
  EXPECT_NEAR(overlap_similarity(small, big), 1.0, 1e-9);
}

TEST(Pearson, PerfectAgreementAndDisagreement) {
  Profile a, b, c;
  for (ItemId id : {1, 2, 3, 4}) {
    const double score = (id % 2 == 0) ? 1.0 : 0.0;
    a.set(id, 0, score);
    b.set(id, 0, score);
    c.set(id, 0, 1.0 - score);
  }
  EXPECT_NEAR(pearson_similarity(a, b), 1.0, 1e-9);   // r=+1 -> 1
  EXPECT_NEAR(pearson_similarity(a, c), 0.0, 1e-9);   // r=-1 -> 0
}

TEST(Pearson, TooFewCoRatedItemsIsZero) {
  EXPECT_EQ(pearson_similarity(liked({1}), liked({1})), 0.0);
}

// --- Property sweep over all metrics ----------------------------------------

class MetricProperty : public ::testing::TestWithParam<Metric> {};

TEST_P(MetricProperty, BoundedInUnitIntervalOnRandomProfiles) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 77);
  for (int trial = 0; trial < 500; ++trial) {
    Profile a, b;
    const auto na = rng.index(12);
    const auto nb = rng.index(12);
    for (std::size_t i = 0; i < na; ++i) {
      a.set(rng.index(20), 0, rng.bernoulli(0.5) ? 1.0 : 0.0);
    }
    for (std::size_t i = 0; i < nb; ++i) {
      b.set(rng.index(20), 0, rng.bernoulli(0.5) ? 1.0 : 0.0);
    }
    const double s = similarity(GetParam(), a, b);
    ASSERT_GE(s, 0.0) << to_string(GetParam());
    ASSERT_LE(s, 1.0) << to_string(GetParam());
  }
}

TEST_P(MetricProperty, EmptyProfilesNeverCrash) {
  const Profile empty;
  const Profile p = liked({1, 2});
  EXPECT_EQ(similarity(GetParam(), empty, empty), 0.0);
  EXPECT_GE(similarity(GetParam(), p, empty), 0.0);
  EXPECT_GE(similarity(GetParam(), empty, p), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, MetricProperty,
                         ::testing::Values(Metric::kWup, Metric::kCosine,
                                           Metric::kJaccard, Metric::kOverlap,
                                           Metric::kPearson),
                         [](const auto& info) { return to_string(info.param); });

// --- Record scorer (SimilarityScorer) --------------------------------------
//
// The scorer reads candidates straight from their compact records; for
// every metric it must agree bit for bit with the pairwise reference merge
// similarity() on the profile the record was encoded from: the selections
// it feeds are part of every fixed-seed trajectory.

// `n` distinct ids drawn from [1, universe] with scores picked by `score`.
template <typename ScoreFn>
Profile drawn(Rng& rng, std::size_t n, ItemId universe, ScoreFn score) {
  Profile p;
  while (p.size() < n) p.set(rng.index(universe) + 1, 0, score(rng));
  return p;
}

double binary(Rng& rng) { return rng.bernoulli(0.5) ? 1.0 : 0.0; }
double liked_only(Rng&) { return 1.0; }
double real(Rng& rng) { return rng.bernoulli(0.2) ? 0.0 : rng.uniform(); }

// Subjects and candidates covering the kernel's edge cases: empty,
// disjoint, all ids shared, every length 1..40 (more than 16 prepared
// subject entries), binary and real-valued scores, zero-score entries, id
// gaps of 64 and more (multi-byte varints), and profiles whose ids all lie
// above or below the others' (the early exit, and a full walk that
// matches nothing).
std::vector<Profile> kernel_corpus() {
  Rng rng(2024);
  std::vector<Profile> corpus;
  corpus.emplace_back();                        // empty
  corpus.push_back(liked({}, {1, 2, 3}));        // only zero scores
  for (std::size_t n = 1; n <= 40; ++n) {
    corpus.push_back(drawn(rng, n, 60, binary));
    corpus.push_back(drawn(rng, n, 60, liked_only));
    corpus.push_back(drawn(rng, n, 60, real));
    corpus.push_back(drawn(rng, n, 400, binary));   // mostly disjoint
    corpus.push_back(drawn(rng, n, 20000, real));   // gaps >= 64 throughout
  }
  Profile shared, shared_disliked, far, low, wide;
  for (ItemId id = 1; id <= 40; ++id) {
    shared.set(id, 0, 1.0);
    shared_disliked.set(id, 0, id % 3 == 0 ? 0.0 : 1.0);
    far.set(id + 1000, 0, 1.0);                 // above every id drawn from [1, 400]
    wide.set(id * 64 + (id % 5) * 9000, 0, id % 2 == 0 ? 1.0 : 0.25);
  }
  low.set(1, 0, 1.0);                           // below everything else
  low.set(2, 0, 0.0);
  corpus.push_back(shared);
  corpus.push_back(shared_disliked);
  corpus.push_back(far);
  corpus.push_back(low);
  corpus.push_back(wide);
  return corpus;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

constexpr Metric kAllMetrics[] = {Metric::kWup, Metric::kCosine, Metric::kJaccard,
                                  Metric::kOverlap, Metric::kPearson};

TEST(SimilarityScorer, RecordScoreMatchesPairwiseSimilarityForEveryMetric) {
  const std::vector<Profile> corpus = kernel_corpus();
  std::vector<ProfileHandle> records;
  for (const Profile& p : corpus) records.push_back(CompactProfile::encode(p));
  SimilarityScorer scorer;
  for (Metric metric : kAllMetrics) {
    for (std::size_t a = 0; a < corpus.size(); ++a) {
      scorer.prepare(metric, corpus[a]);
      for (std::size_t b = 0; b < corpus.size(); ++b) {
        ASSERT_EQ(bits(scorer.score(records[b].record())),
                  bits(similarity(metric, corpus[a], corpus[b])))
            << to_string(metric) << ": subject " << a << ", candidate " << b;
      }
    }
  }
}

TEST(SimilarityScorer, NullCandidateScoresAsEmptyProfile) {
  const std::vector<Profile> corpus = kernel_corpus();
  SimilarityScorer scorer;
  for (Metric metric : kAllMetrics) {
    for (const Profile& subject : corpus) {
      scorer.prepare(metric, subject);
      ASSERT_EQ(bits(scorer.score(nullptr)), bits(similarity(metric, subject, Profile{})))
          << to_string(metric);
    }
  }
}

TEST(SimilarityScorer, DecodesCandidateIdsOnlyUpToTheSubjectsLast) {
  struct StatsOff {
    ~StatsOff() { obs::set_enabled(false); }
  } guard;
  const auto decoded_by = [](const Profile& subject, const Profile& candidate) {
    obs::Registry::instance().reset();
    obs::set_enabled(true);
    SimilarityScorer scorer;
    scorer.prepare(Metric::kWup, subject);
    const ProfileHandle record = CompactProfile::encode(candidate);
    scorer.score(record.record());
    obs::set_enabled(false);
    std::uint64_t scanned = 0, decoded = 0;
    for (const obs::MetricValue& m : obs::Registry::instance().merge()) {
      if (m.name == "similarity.entries_scanned") scanned = m.value;
      if (m.name == "similarity.entries_decoded") decoded = m.value;
    }
    EXPECT_EQ(scanned, candidate.size());
    return decoded;
  };
  const Profile candidate = liked({3, 5, 70, 200, 9000});
  EXPECT_EQ(decoded_by(liked({1}), candidate), 1u);     // first id is already past
  EXPECT_EQ(decoded_by(liked({5}), candidate), 3u);     // 3, 5, then 70 > 5
  EXPECT_EQ(decoded_by(liked({70}, {9000}), candidate), 4u);  // 9000 scores 0: not prepared
  EXPECT_EQ(decoded_by(liked({9000}), candidate), 5u);  // the whole record
  EXPECT_EQ(decoded_by(liked({}, {4}), candidate), 0u);  // nothing prepared
}

TEST(MetricNames, RoundTrip) {
  EXPECT_EQ(to_string(Metric::kWup), "wup");
  EXPECT_EQ(to_string(Metric::kCosine), "cosine");
  EXPECT_EQ(to_string(Metric::kJaccard), "jaccard");
  EXPECT_EQ(to_string(Metric::kOverlap), "overlap");
  EXPECT_EQ(to_string(Metric::kPearson), "pearson");
}

}  // namespace
}  // namespace whatsup
