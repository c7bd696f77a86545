#include "profile/similarity.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/varint.hpp"
#include "obs/registry.hpp"
#include "profile/compact.hpp"

namespace whatsup {

namespace {

// ---- Pairwise merge kernels -----------------------------------------------
//
// Every metric reduces to a two-pointer merge of two id-sorted profiles.
// The scalar loops below use branch-free pointer advances (the compiler
// lowers the conditional increments to cmov/setcc) with a branchy — but
// rare — accumulate on matches; measured faster than both the fully branchy
// and the fully gated variants on random interleaves.
//
// The selection loops do not merge pairwise: SimilarityScorer streams each
// candidate record against the prepared subject (see similarity.hpp). Both
// paths feed the same per-match accumulators and finishers below, so they
// agree bit for bit.

struct WupStats {
  double dot = 0.0;        // dot(sub(a,b), b)
  double sub_norm2 = 0.0;  // ‖sub(a,b)‖²
  void add(double va, double vb) {
    dot += va * vb;
    sub_norm2 += va * va;
  }
};

struct DotStats {
  double dot = 0.0;
  void add(double va, double vb) { dot += va * vb; }
};

// |liked(a) ∩ liked(b)| — Jaccard.
struct BothLikedStats {
  std::size_t both = 0;
  void add(double va, double vb) {
    if (va > 0.5 && vb > 0.5) ++both;
  }
};

// Full co-rating statistics — Pearson.
struct PearsonStats {
  double dot = 0.0;
  double sum_a = 0.0;
  double sum_b = 0.0;
  double sum_a2 = 0.0;
  double sum_b2 = 0.0;
  std::size_t common = 0;
  void add(double va, double vb) {
    dot += va * vb;
    sum_a += va;
    sum_b += vb;
    sum_a2 += va * va;
    sum_b2 += vb * vb;
    ++common;
  }
};

template <typename Stats>
Stats merge_stats(const Profile& a, const Profile& b) {
  const ItemId* ia = a.ids().data();
  const ItemId* ib = b.ids().data();
  const double* sa = a.scores().data();
  const double* sb = b.scores().data();
  const std::size_t na = a.size(), nb = b.size();
  Stats stats;
  std::size_t i = 0, j = 0;
  while (i < na && j < nb) {
    const ItemId da = ia[i], db = ib[j];
    if (da == db) stats.add(sa[i], sb[j]);
    i += da <= db ? 1 : 0;
    j += db <= da ? 1 : 0;
  }
  return stats;
}

double clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

double wup_finish(const WupStats& stats, double cand_norm) {
  if (stats.sub_norm2 <= 0.0) return 0.0;
  if (cand_norm <= 0.0) return 0.0;
  return clamp01(stats.dot / (std::sqrt(stats.sub_norm2) * cand_norm));
}

double cosine_finish(const DotStats& stats, double na, double nb) {
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return clamp01(stats.dot / (na * nb));
}

double jaccard_finish(const BothLikedStats& stats, std::size_t liked_a,
                      std::size_t liked_b) {
  const std::size_t uni = liked_a + liked_b - stats.both;
  if (uni == 0) return 0.0;
  return static_cast<double>(stats.both) / static_cast<double>(uni);
}

double overlap_finish(const DotStats& stats, double na, double nb) {
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  // dot / min(‖a‖,‖b‖)² keeps binary profiles in [0,1].
  const double m = std::min(na, nb);
  return clamp01(stats.dot / (m * m));
}

double pearson_finish(const PearsonStats& stats) {
  if (stats.common < 2) return 0.0;
  const auto n = static_cast<double>(stats.common);
  const double cov = stats.dot - stats.sum_a * stats.sum_b / n;
  const double var_a = stats.sum_a2 - stats.sum_a * stats.sum_a / n;
  const double var_b = stats.sum_b2 - stats.sum_b * stats.sum_b / n;
  if (var_a <= 0.0 || var_b <= 0.0) return 0.0;
  const double r = cov / std::sqrt(var_a * var_b);
  return clamp01((r + 1.0) / 2.0);
}

// ---- Streaming record kernel ----------------------------------------------

// Score j of a record's score block.
struct BinaryScores {
  const std::uint8_t* mask;
  double operator[](std::size_t j) const { return (mask[j / 8] >> (j % 8)) & 1u ? 1.0 : 0.0; }
};
struct RawScores {
  const std::uint8_t* bytes;
  double operator[](std::size_t j) const {
    double v;
    std::memcpy(&v, bytes + j * sizeof(double), sizeof(double));
    return v;
  }
};

// Streams the candidate's ids against the subject ids ia[0..na), adding
// (subject score, candidate score) to `stats` for every common id in
// ascending order. Returns the number of candidate ids decoded: the walk
// stops at the first id past ia[na - 1], which no later id can match.
template <typename Stats, typename Scores>
std::size_t stream_stats(const ItemId* ia, const double* sa, std::size_t na,
                         const std::uint8_t* p, std::size_t nb, Scores sb,
                         Stats& stats) {
  if (na == 0) return 0;
  const ItemId last = ia[na - 1];
  std::uint64_t id = 0;
  std::size_t i = 0;
  for (std::size_t j = 0; j < nb; ++j) {
    std::uint64_t v = *p;
    if (v < 0x80) [[likely]] {
      ++p;
    } else {
      v = varint_read(p);
    }
    id += static_cast<std::uint64_t>(zigzag_decode(v));
    if (id > last) return j + 1;
    while (ia[i] < id) ++i;  // stops at last: id <= ia[na - 1]
    if (ia[i] == id) stats.add(sa[i], sb[j]);
  }
  return nb;
}

template <typename Stats>
std::size_t stream_stats(const std::vector<ItemId>& ids, const std::vector<double>& scores,
                         const CompactProfile& candidate, Stats& stats) {
  const std::uint8_t* block = candidate.score_block();
  const std::uint8_t* deltas = candidate.id_deltas();
  if (candidate.binary_scores()) {
    return stream_stats(ids.data(), scores.data(), ids.size(), deltas, candidate.size(),
                        BinaryScores{block}, stats);
  }
  return stream_stats(ids.data(), scores.data(), ids.size(), deltas, candidate.size(),
                      RawScores{block}, stats);
}

}  // namespace

std::string to_string(Metric metric) {
  switch (metric) {
    case Metric::kWup: return "wup";
    case Metric::kCosine: return "cosine";
    case Metric::kJaccard: return "jaccard";
    case Metric::kOverlap: return "overlap";
    case Metric::kPearson: return "pearson";
  }
  return "unknown";
}

double wup_similarity(const Profile& subject, const Profile& candidate) {
  return wup_finish(merge_stats<WupStats>(subject, candidate), candidate.norm());
}

double cosine_similarity(const Profile& a, const Profile& b) {
  return cosine_finish(merge_stats<DotStats>(a, b), a.norm(), b.norm());
}

double jaccard_similarity(const Profile& a, const Profile& b) {
  return jaccard_finish(merge_stats<BothLikedStats>(a, b), a.liked_count(), b.liked_count());
}

double overlap_similarity(const Profile& a, const Profile& b) {
  return overlap_finish(merge_stats<DotStats>(a, b), a.norm(), b.norm());
}

double pearson_similarity(const Profile& a, const Profile& b) {
  return pearson_finish(merge_stats<PearsonStats>(a, b));
}

double similarity(Metric metric, const Profile& subject, const Profile& candidate) {
  switch (metric) {
    case Metric::kWup: return wup_similarity(subject, candidate);
    case Metric::kCosine: return cosine_similarity(subject, candidate);
    case Metric::kJaccard: return jaccard_similarity(subject, candidate);
    case Metric::kOverlap: return overlap_similarity(subject, candidate);
    case Metric::kPearson: return pearson_similarity(subject, candidate);
  }
  return 0.0;
}

void SimilarityScorer::prepare(Metric metric, const Profile& subject) {
  metric_ = metric;
  norm_ = subject.norm();
  liked_ = subject.liked_count();
  ids_.clear();
  scores_.clear();
  for (std::size_t i = 0; i < subject.size(); ++i) {
    if (metric == Metric::kWup && subject.scores()[i] == 0.0) continue;
    ids_.push_back(subject.ids()[i]);
    scores_.push_back(subject.scores()[i]);
  }
}

void SimilarityScorer::prepare(Metric metric, const CompactProfile* subject) {
  metric_ = metric;
  ids_.clear();
  scores_.clear();
  if (subject == nullptr) {
    norm_ = 0.0;
    liked_ = 0;
    return;
  }
  norm_ = subject->norm();
  liked_ = subject->liked_count();
  const auto append = [&](auto scores) {
    const std::uint8_t* p = subject->id_deltas();
    std::uint64_t id = 0;
    for (std::size_t j = 0; j < subject->size(); ++j) {
      id += static_cast<std::uint64_t>(zigzag_decode(varint_read(p)));
      const double s = scores[j];
      if (metric == Metric::kWup && s == 0.0) continue;
      ids_.push_back(id);
      scores_.push_back(s);
    }
  };
  if (subject->binary_scores()) {
    append(BinaryScores{subject->score_block()});
  } else {
    append(RawScores{subject->score_block()});
  }
}

double SimilarityScorer::score(const CompactProfile* candidate) const {
  // A null candidate is the empty profile: no entries, norm 0, no likes.
  static const CompactProfile* const kEmpty = empty_profile_handle().record();
  const CompactProfile& c = candidate != nullptr ? *candidate : *kEmpty;
  std::size_t decoded = 0;
  double result = 0.0;
  switch (metric_) {
    case Metric::kWup: {
      WupStats stats;
      decoded = stream_stats(ids_, scores_, c, stats);
      result = wup_finish(stats, c.norm());
      break;
    }
    case Metric::kCosine: {
      DotStats stats;
      decoded = stream_stats(ids_, scores_, c, stats);
      result = cosine_finish(stats, norm_, c.norm());
      break;
    }
    case Metric::kJaccard: {
      BothLikedStats stats;
      decoded = stream_stats(ids_, scores_, c, stats);
      result = jaccard_finish(stats, liked_, c.liked_count());
      break;
    }
    case Metric::kOverlap: {
      DotStats stats;
      decoded = stream_stats(ids_, scores_, c, stats);
      result = overlap_finish(stats, norm_, c.norm());
      break;
    }
    case Metric::kPearson: {
      PearsonStats stats;
      decoded = stream_stats(ids_, scores_, c, stats);
      result = pearson_finish(stats);
      break;
    }
  }
  if (obs::enabled()) {
    static const obs::MetricId candidates = obs::counter("similarity.candidates");
    static const obs::MetricId scanned = obs::counter("similarity.entries_scanned");
    static const obs::MetricId decoded_ids = obs::counter("similarity.entries_decoded");
    obs::add(candidates);
    obs::add(scanned, c.size());
    obs::add(decoded_ids, decoded);
  }
  return result;
}

}  // namespace whatsup
