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

class CompactProfile;

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
// View::assign_closest and BEEP's select_most_similar. Candidates are
// scored straight from their compact snapshot records, never decoded: the
// scorer walks a record's id deltas in ascending order (one-byte varints
// take a fast path), probes each id against the prepared subject, reads a
// matched entry's score from the record's score block, and stops at the
// first id past the subject's last. Norm and liked count come from the
// record header.
//
// For Metric::kWup the prepared subject is its nonzero-score entries: a
// zero subject score adds +0 to both sums, so skipping those entries keeps
// every score bit-identical to wup_similarity (for finite scores). The
// other metrics prepare the full subject. Matches accumulate in ascending
// id order with the operands of the pairwise merges, so every metric's
// score equals similarity() on the decoded candidate bit for bit.
//
// Callers keep one scorer per thread and re-prepare it per selection, so
// scoring allocates nothing once the buffers have grown. Counts
// `similarity.candidates`, `similarity.entries_scanned` (candidate entries
// presented to the scorer) and `similarity.entries_decoded` (candidate ids
// decoded before the early exit) when telemetry is on.
class SimilarityScorer {
 public:
  void prepare(Metric metric, const Profile& subject);
  // The same preparation read straight from a record (BEEP orients by the
  // news payload's item-profile record); null prepares the empty profile.
  // Equal to prepare(metric, subject->decode()) for every metric.
  void prepare(Metric metric, const CompactProfile* subject);

  // similarity(metric, subject, decoded candidate), bit for bit. A null
  // candidate scores as the empty profile.
  double score(const CompactProfile* candidate) const;

 private:
  Metric metric_ = Metric::kWup;
  std::vector<ItemId> ids_;  // prepared subject entries, ascending
  std::vector<double> scores_;
  double norm_ = 0.0;        // full subject's norm and liked count
  std::size_t liked_ = 0;
};

}  // namespace whatsup
