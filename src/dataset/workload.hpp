// Workloads: the ground truth driving every experiment.
//
// A workload fixes (a) the user population, (b) the news items with their
// sources and (optionally scheduled) publication cycles, (c) the boolean
// like-matrix `likes(user, item)` — the opinions users WOULD express when
// exposed to each item — and, where applicable, (d) an explicit social
// graph (Digg cascades) and per-item topics (C-Pub/Sub subscriptions).
//
// The paper's three datasets (Table I) are regenerated synthetically with
// matched statistics.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/bitset.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "graph/ugraph.hpp"
#include "profile/profile.hpp"

namespace whatsup::data {

struct NewsSpec {
  ItemIdx index = kNoItem;
  ItemId id = 0;
  NodeId source = kNoNode;
  Cycle publish_at = kNoCycle;  // assigned by schedule_publications
  int topic = 0;                // community / category / latent topic
};

class Workload {
 public:
  std::string name;
  std::size_t n_users = 0;
  std::size_t n_topics = 0;
  std::vector<NewsSpec> news;            // position == NewsSpec::index
  std::vector<DynBitset> interested_in;  // per item, over users
  std::optional<graph::UGraph> social;   // explicit social network (Digg)

  std::size_t num_users() const { return n_users; }
  std::size_t num_items() const { return news.size(); }

  bool likes(NodeId user, ItemIdx item) const {
    return interested_in[item].test(user);
  }
  const DynBitset& interested(ItemIdx item) const { return interested_in[item]; }

  // Fraction of users interested in the item (Fig. 10's popularity axis).
  double popularity(ItemIdx item) const;

  int topic_of(ItemIdx item) const { return news[item].topic; }

  // Explicit-pub/sub subscriptions (§IV-B): a user subscribes to a topic
  // if she likes at least one item associated with that topic.
  std::vector<std::vector<NodeId>> topic_subscribers() const;

  // Ground-truth profile of a user over ALL items (binary scores, common
  // timestamp): the basis of the sociability analysis (Fig. 11).
  Profile full_profile(NodeId user) const;

  // Assigns publication cycles spread uniformly over [first, last] (items
  // shuffled first so topics interleave), sources untouched.
  void schedule_publications(Cycle first, Cycle last, Rng& rng);

  // Publication-storm spreading: staggers each cycle's publication burst
  // over the next `window` cycles — the i-th item of a cycle's burst moves
  // to publish_at + (i % window). A dense calendar (many items per cycle)
  // otherwise makes every source snapshot, encode, and fan out item
  // profiles in the SAME cycle, and that synchronized burst — not the
  // steady state — sets the peak-RSS envelope. Item order within a burst is
  // calendar order (ascending index), so the result is a pure function of
  // the already-assigned calendar: deterministic, identical across thread
  // counts and partitionings. No-op for window <= 1.
  void spread_publication_storms(Cycle window);

  // Appends `count` externally-injected items that NO user likes and that
  // the publication calendar never schedules (publish_at stays kNoCycle,
  // so they are excluded from every measured-item pass). The scenario
  // engine uses this for adversarial spam, whose `source` ids may lie
  // beyond the honest population — validate() is not expected to hold
  // afterwards. Returns the index of the first appended item.
  ItemIdx append_unscheduled_items(std::size_t count, NodeId source, int topic = 0);

  // Restricts the workload to `keep_users` uniformly sampled users
  // (re-indexing them densely) and drops items left with no interested
  // user or whose source was removed (re-indexing item ids too). Used for
  // the 245-user deployment experiments (§V-D).
  Workload subsample_users(std::size_t keep_users, Rng& rng) const;

  // Internal consistency: every item has a valid in-range source that
  // likes it, bitset sizes match, topics in range. Aborts on violation.
  void validate() const;
};

}  // namespace whatsup::data
