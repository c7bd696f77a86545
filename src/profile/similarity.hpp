// Similarity metrics between profiles.
//
// The paper's WUP metric (§II) is an *asymmetric* cosine variant:
//
//   Similarity(n, c) = sub(Pn,Pc)·Pc / (‖sub(Pn,Pc)‖ ‖Pc‖)
//
// where sub(Pn,Pc) is the restriction of Pn to the items present in Pc.
// For binary user profiles this divides the number of items liked by both
// by sqrt(#items liked by n that c rated) * sqrt(#items liked by c): it
// rewards common likes, penalises candidates who dislike what the subject
// likes, and favours candidates with short, selective profiles (cold-start
// boost). Cosine, Jaccard, overlap and Pearson are provided as baselines
// (§VI cites cosine as the strongest conventional metric).
#pragma once

#include <string>
#include <vector>

#include "profile/profile.hpp"

namespace whatsup {

enum class Metric {
  kWup,
  kCosine,
  kJaccard,
  kOverlap,
  kPearson,
};

std::string to_string(Metric metric);

// Asymmetric WUP metric; `subject` is the node doing the selection (or the
// item profile in BEEP's orientation step), `candidate` the profile under
// evaluation. Returns 0 when either restriction is empty.
double wup_similarity(const Profile& subject, const Profile& candidate);

// Classic cosine over the common items, normalised by full profile norms.
double cosine_similarity(const Profile& a, const Profile& b);

// |liked(a) ∩ liked(b)| / |liked(a) ∪ liked(b)| with liked = score > 0.5.
double jaccard_similarity(const Profile& a, const Profile& b);

// dot(common) / min(‖a‖, ‖b‖)², clamped to [0, 1].
double overlap_similarity(const Profile& a, const Profile& b);

// Pearson correlation over co-rated items, rescaled to [0, 1].
double pearson_similarity(const Profile& a, const Profile& b);

// Dispatch by metric; all results are in [0, 1].
double similarity(Metric metric, const Profile& subject, const Profile& candidate);

// One subject scored against many candidates — the selection loops of
// View::assign_closest and BEEP's select_most_similar. For Metric::kWup the
// subject is prepared once: its nonzero-score (id, score) entries. Each
// candidate's ascending ids are then probed against them: an AVX-512
// broadcast-compare where available and the prepared subject fits two
// registers (at most 16 entries), else a scalar merge. A zero subject
// score adds +0 to both sums, so skipping those entries, and accumulating
// the matches in ascending id order exactly as the pairwise merge does,
// keeps every score bit-identical to wup_similarity (for finite scores).
// The other metrics run their pairwise merge against the subject.
//
// Callers keep one scorer per thread and re-prepare it per selection, so
// scoring allocates nothing once the buffers have grown. Counts
// `similarity.candidates` and `similarity.entries_scanned` (candidate
// entries presented to the scorer) when telemetry is on.
class SimilarityScorer {
 public:
  // `subject` must outlive the scoring (non-WUP metrics read it per call).
  void prepare(Metric metric, const Profile& subject);

  // similarity(metric, subject, candidate), bit for bit.
  double score(const Profile& candidate) const;

  // The two WUP kernel bodies behind score(), exposed so tests can check
  // them against each other and against wup_similarity. wup_avx512
  // requires avx512_available(); it runs the scalar body for prepared
  // subjects of more than 16 entries.
  double wup_scalar(const Profile& candidate) const;
  double wup_avx512(const Profile& candidate) const;
  static bool avx512_available();

 private:
  Metric metric_ = Metric::kWup;
  const Profile* subject_ = nullptr;
  std::vector<ItemId> ids_;     // nonzero-score subject entries, ascending
  std::vector<double> scores_;
};

}  // namespace whatsup
