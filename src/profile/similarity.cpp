#include "profile/similarity.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "obs/registry.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define WHATSUP_X86_DISPATCH 1
#endif

namespace whatsup {

namespace {

// ---- Merge kernels --------------------------------------------------------
//
// Every metric reduces to a two-pointer merge of two id-sorted profiles.
// The scalar loops below use branch-free pointer advances (the compiler
// lowers the conditional increments to cmov/setcc) with a branchy — but
// rare — accumulate on matches; measured faster than both the fully branchy
// and the fully gated variants on random interleaves.
//
// The WUP selection loops do not merge pairwise: SimilarityScorer probes
// each candidate id against the prepared subject (see similarity.hpp).

struct WupStats {
  double dot = 0.0;        // dot(sub(a,b), b)
  double sub_norm2 = 0.0;  // ‖sub(a,b)‖²
};

WupStats wup_stats(const ItemId* ia, const double* sa, std::size_t na,
                   const ItemId* ib, const double* sb, std::size_t nb) {
  WupStats s;
  std::size_t i = 0, j = 0;
  while (i < na && j < nb) {
    const ItemId da = ia[i], db = ib[j];
    if (da == db) {
      const double va = sa[i];
      s.dot += va * sb[j];
      s.sub_norm2 += va * va;
    }
    i += da <= db ? 1 : 0;
    j += db <= da ? 1 : 0;
  }
  return s;
}

double common_dot(const Profile& a, const Profile& b) {
  const ItemId* ia = a.ids().data();
  const ItemId* ib = b.ids().data();
  const double* sa = a.scores().data();
  const double* sb = b.scores().data();
  const std::size_t na = a.size(), nb = b.size();
  double dot = 0.0;
  std::size_t i = 0, j = 0;
  while (i < na && j < nb) {
    const ItemId da = ia[i], db = ib[j];
    if (da == db) dot += sa[i] * sb[j];
    i += da <= db ? 1 : 0;
    j += db <= da ? 1 : 0;
  }
  return dot;
}

#ifdef WHATSUP_X86_DISPATCH

// Broadcast-compare probe for prepared subjects of up to 16 entries, held
// in two registers: each candidate id (ascending) is compared with every
// subject id at once. Subject ids are unique, so a probe matches at most one
// lane; the loop is branch-free and records match positions, accumulated
// afterwards in ascending id order.
__attribute__((target("avx512f"))) WupStats wup_probe_avx512(
    const ItemId* ia, const double* sa, std::size_t na, const ItemId* ib,
    const double* sb, std::size_t nb) {
  WupStats s;
  if (na == 0) return s;
  const auto lanes = [](std::size_t n) {
    return static_cast<__mmask8>(n >= 8 ? 0xFF : (1u << n) - 1);
  };
  const __mmask8 m0 = lanes(na), m1 = lanes(na > 8 ? na - 8 : 0);
  const __m512i lo = _mm512_maskz_loadu_epi64(m0, ia);
  const __m512i hi = _mm512_maskz_loadu_epi64(m1, ia + 8);
  const ItemId last = ia[na - 1];
  // At most na matches; slot [matches] takes the non-matching writes.
  std::uint32_t at_i[17] = {}, at_j[17] = {};
  std::size_t matches = 0;
  for (std::size_t j = 0; j < nb && ib[j] <= last; ++j) {
    const __m512i key = _mm512_set1_epi64(static_cast<long long>(ib[j]));
    const unsigned hit = _mm512_mask_cmpeq_epi64_mask(m0, lo, key) |
                         (unsigned{_mm512_mask_cmpeq_epi64_mask(m1, hi, key)} << 8);
    at_i[matches] = static_cast<std::uint32_t>(__builtin_ctz(hit | 0x10000u));
    at_j[matches] = static_cast<std::uint32_t>(j);
    matches += hit != 0 ? 1 : 0;
  }
  for (std::size_t m = 0; m < matches; ++m) {
    const double va = sa[at_i[m]];
    s.dot += va * sb[at_j[m]];
    s.sub_norm2 += va * va;
  }
  return s;
}

constexpr std::size_t kProbeMaxEntries = 16;

const bool kHaveAvx512 = __builtin_cpu_supports("avx512f") != 0;

#else

constexpr bool kHaveAvx512 = false;

#endif  // WHATSUP_X86_DISPATCH

// |liked(a) ∩ liked(b)| — Jaccard only (off the clustering hot path).
std::size_t common_both_liked(const Profile& a, const Profile& b) {
  const ItemId* ia = a.ids().data();
  const ItemId* ib = b.ids().data();
  const double* sa = a.scores().data();
  const double* sb = b.scores().data();
  const std::size_t na = a.size(), nb = b.size();
  std::size_t both = 0;
  std::size_t i = 0, j = 0;
  while (i < na && j < nb) {
    const ItemId da = ia[i], db = ib[j];
    if (da == db && sa[i] > 0.5 && sb[j] > 0.5) ++both;
    i += da <= db ? 1 : 0;
    j += db <= da ? 1 : 0;
  }
  return both;
}

// Full co-rating statistics — Pearson only.
struct PearsonStats {
  double dot = 0.0;
  double sum_a = 0.0;
  double sum_b = 0.0;
  double sum_a2 = 0.0;
  double sum_b2 = 0.0;
  std::size_t common = 0;
};

PearsonStats pearson_stats(const Profile& a, const Profile& b) {
  const ItemId* ia = a.ids().data();
  const ItemId* ib = b.ids().data();
  const double* sa = a.scores().data();
  const double* sb = b.scores().data();
  const std::size_t na = a.size(), nb = b.size();
  PearsonStats stats;
  std::size_t i = 0, j = 0;
  while (i < na && j < nb) {
    const ItemId da = ia[i], db = ib[j];
    if (da == db) {
      const double va = sa[i], vb = sb[j];
      stats.dot += va * vb;
      stats.sum_a += va;
      stats.sum_b += vb;
      stats.sum_a2 += va * va;
      stats.sum_b2 += vb * vb;
      ++stats.common;
    }
    i += da <= db ? 1 : 0;
    j += db <= da ? 1 : 0;
  }
  return stats;
}

double clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

double wup_finish(const WupStats& stats, const Profile& candidate) {
  if (stats.sub_norm2 <= 0.0) return 0.0;
  const double cand_norm = candidate.norm();
  if (cand_norm <= 0.0) return 0.0;
  return clamp01(stats.dot / (std::sqrt(stats.sub_norm2) * cand_norm));
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
  return wup_finish(wup_stats(subject.ids().data(), subject.scores().data(), subject.size(),
                              candidate.ids().data(), candidate.scores().data(),
                              candidate.size()),
                    candidate);
}

double cosine_similarity(const Profile& a, const Profile& b) {
  const double na = a.norm();
  const double nb = b.norm();
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return clamp01(common_dot(a, b) / (na * nb));
}

double jaccard_similarity(const Profile& a, const Profile& b) {
  const std::size_t both_liked = common_both_liked(a, b);
  const std::size_t uni = a.liked_count() + b.liked_count() - both_liked;
  if (uni == 0) return 0.0;
  return static_cast<double>(both_liked) / static_cast<double>(uni);
}

double overlap_similarity(const Profile& a, const Profile& b) {
  const double na = a.norm();
  const double nb = b.norm();
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  // dot / min(‖a‖,‖b‖)² keeps binary profiles in [0,1].
  const double m = std::min(na, nb);
  return clamp01(common_dot(a, b) / (m * m));
}

double pearson_similarity(const Profile& a, const Profile& b) {
  const PearsonStats stats = pearson_stats(a, b);
  if (stats.common < 2) return 0.0;
  const auto n = static_cast<double>(stats.common);
  const double cov = stats.dot - stats.sum_a * stats.sum_b / n;
  const double var_a = stats.sum_a2 - stats.sum_a * stats.sum_a / n;
  const double var_b = stats.sum_b2 - stats.sum_b * stats.sum_b / n;
  if (var_a <= 0.0 || var_b <= 0.0) return 0.0;
  const double r = cov / std::sqrt(var_a * var_b);
  return clamp01((r + 1.0) / 2.0);
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
  subject_ = &subject;
  ids_.clear();
  scores_.clear();
  if (metric != Metric::kWup) return;
  for (std::size_t i = 0; i < subject.size(); ++i) {
    if (subject.scores()[i] == 0.0) continue;
    ids_.push_back(subject.ids()[i]);
    scores_.push_back(subject.scores()[i]);
  }
}

double SimilarityScorer::score(const Profile& candidate) const {
  if (obs::enabled()) {
    static const obs::MetricId candidates = obs::counter("similarity.candidates");
    static const obs::MetricId scanned = obs::counter("similarity.entries_scanned");
    obs::add(candidates);
    obs::add(scanned, candidate.size());
  }
  if (metric_ != Metric::kWup) return similarity(metric_, *subject_, candidate);
  return kHaveAvx512 ? wup_avx512(candidate) : wup_scalar(candidate);
}

double SimilarityScorer::wup_scalar(const Profile& candidate) const {
  return wup_finish(wup_stats(ids_.data(), scores_.data(), ids_.size(), candidate.ids().data(),
                              candidate.scores().data(), candidate.size()),
                    candidate);
}

double SimilarityScorer::wup_avx512(const Profile& candidate) const {
#ifdef WHATSUP_X86_DISPATCH
  if (ids_.size() > kProbeMaxEntries) return wup_scalar(candidate);
  return wup_finish(wup_probe_avx512(ids_.data(), scores_.data(), ids_.size(),
                                     candidate.ids().data(), candidate.scores().data(),
                                     candidate.size()),
                    candidate);
#else
  return wup_scalar(candidate);
#endif
}

bool SimilarityScorer::avx512_available() { return kHaveAvx512; }

}  // namespace whatsup
