// BEEP — Biased EpidEmic Protocol (paper §III, Algorithm 2).
//
// A heterogeneous SIR gossip: the set and number of forwarding targets
// depend on the user's opinion.
//
//  * liked item  → AMPLIFICATION: forward to a uniformly random subset of
//    `fLIKE` members of the WUP view (orientation towards similar users is
//    implicit in the view itself; random selection within the view avoids
//    over-clustering, §III-B).
//  * disliked item → ORIENTATION + serendipity: if the dislike counter has
//    not reached the TTL, increment it and forward one copy to the RPS-view
//    node whose user profile is most similar to the ITEM profile (§III-A).
//
// The ablation switches expose each mechanism separately (used by
// bench/ablation_beep): with amplification off a liked item is forwarded to
// a single WUP neighbor; with orientation off a disliked item goes to a
// uniformly random RPS neighbor.
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "gossip/view.hpp"
#include "net/message.hpp"
#include "profile/similarity.hpp"

namespace whatsup::beep {

struct BeepConfig {
  int f_like = 10;      // fanout for liked items (fLIKE)
  int f_dislike = 1;    // fanout for disliked items (fixed to 1 in the paper)
  int ttl = 4;          // max dislike hops per copy (BEEP TTL)
  Metric metric = Metric::kWup;  // metric for dislike orientation
  bool amplification = true;     // ablation: fLIKE vs 1 for liked items
  bool orientation = true;       // ablation: item-profile vs random dislike target
};

struct ForwardPlan {
  std::vector<NodeId> targets;
  bool dropped_by_ttl = false;  // disliked and d_I had reached the TTL
};

// Plans the targets of a forwarding action and updates `news.dislikes`
// (line 26 of Alg. 2). The caller sends one copy per target.
ForwardPlan plan_forward(Rng& rng, const BeepConfig& config, bool liked,
                         net::NewsPayload& news, const gossip::View& wup_view,
                         const gossip::View& rps_view);

// The orientation primitive (selectMostSimilarNode, Alg. 2 line 27):
// the view member whose profile maximizes similarity(item profile, member).
// The item profile is the news payload's record (null: the empty profile).
// Members listed in `excluded` are skipped — plan_forward passes the
// targets it already picked, so an f_dislike > 1 plan orients each copy
// towards a DISTINCT node instead of re-selecting the same best match.
NodeId select_most_similar(const gossip::View& view, const CompactProfile* item_profile,
                           Metric metric, Rng& rng,
                           std::span<const NodeId> excluded = {});

}  // namespace whatsup::beep
