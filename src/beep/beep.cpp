#include "beep/beep.hpp"

#include <algorithm>

namespace whatsup::beep {

NodeId select_most_similar(const gossip::View& view, const CompactProfile* item_profile,
                           Metric metric, Rng& rng,
                           std::span<const NodeId> excluded) {
  // One scorer per thread: the item profile is prepared once per pick.
  thread_local SimilarityScorer scorer;
  scorer.prepare(metric, item_profile);
  NodeId best = kNoNode;
  double best_score = -1.0;
  std::size_t ties = 0;
  for (const net::Descriptor& d : view.entries()) {
    if (std::find(excluded.begin(), excluded.end(), d.node) != excluded.end()) {
      continue;
    }
    const double score = scorer.score(d.snapshot());
    if (score > best_score) {
      best_score = score;
      best = d.node;
      ties = 1;
    } else if (score == best_score) {
      // Reservoir-style uniform tie-breaking.
      ++ties;
      if (rng.index(ties) == 0) best = d.node;
    }
  }
  return best;
}

ForwardPlan plan_forward(Rng& rng, const BeepConfig& config, bool liked,
                         net::NewsPayload& news, const gossip::View& wup_view,
                         const gossip::View& rps_view) {
  ForwardPlan plan;
  if (!liked) {
    if (news.dislikes >= config.ttl) {
      plan.dropped_by_ttl = true;  // Alg. 2 lines 25/28-29
      return plan;
    }
    news.dislikes += 1;  // line 26
    for (int i = 0; i < config.f_dislike; ++i) {
      // Oriented picks exclude the targets already in the plan: without
      // the exclusion, every iteration re-selects the same most-similar
      // node and the duplicate filter caps the plan at one target no
      // matter how large f_dislike is. The random ablation branch keeps
      // its historical semantics (duplicates discarded, not redrawn).
      const NodeId target =
          config.orientation
              ? select_most_similar(rps_view, news.item_profile.record(), config.metric,
                                    rng, plan.targets)
              : rps_view.random_member(rng);
      if (target == kNoNode) break;
      if (std::find(plan.targets.begin(), plan.targets.end(), target) ==
          plan.targets.end()) {
        plan.targets.push_back(target);
      }
    }
    return plan;
  }
  const int fanout = config.amplification ? config.f_like : 1;
  // Ids only: no reason to copy descriptors (and bump snapshot refcounts)
  // for a fanout pick.
  plan.targets =
      wup_view.random_members(rng, static_cast<std::size_t>(std::max(fanout, 0)));
  return plan;
}

}  // namespace whatsup::beep
