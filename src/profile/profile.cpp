#include "profile/profile.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

namespace whatsup {

// Global version stamps: every content change anywhere draws a fresh value,
// so version equality implies content equality across all Profile instances
// (copies keep the stamp of the state they captured). Atomic so snapshot
// caches stay sound if simulations ever run on several threads.
std::uint64_t next_profile_version() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::size_t Profile::lower_bound(ItemId id) const {
  return static_cast<std::size_t>(
      std::lower_bound(ids_.begin(), ids_.end(), id) - ids_.begin());
}

void Profile::bump_version() {
  version_ = ids_.empty() ? 0 : next_profile_version();
  norm_dirty_ = true;
}

bool Profile::contains(ItemId id) const {
  const std::size_t i = lower_bound(id);
  return i < ids_.size() && ids_[i] == id;
}

std::optional<double> Profile::score(ItemId id) const {
  const std::size_t i = lower_bound(id);
  if (i >= ids_.size() || ids_[i] != id) return std::nullopt;
  return scores_[i];
}

std::optional<ProfileEntry> Profile::find(ItemId id) const {
  const std::size_t i = lower_bound(id);
  if (i >= ids_.size() || ids_[i] != id) return std::nullopt;
  return entry(i);
}

void Profile::insert_at(std::size_t i, ItemId id, Cycle timestamp, double score) {
  ids_.insert(i, id);
  timestamps_.insert(i, timestamp);
  scores_.insert(i, score);
  liked_ += score > 0.5 ? 1 : 0;
}

void Profile::set(ItemId id, Cycle timestamp, double score) {
  const std::size_t i = lower_bound(id);
  if (i < ids_.size() && ids_[i] == id) {
    liked_ -= scores_[i] > 0.5 ? 1 : 0;
    liked_ += score > 0.5 ? 1 : 0;
    timestamps_[i] = timestamp;
    scores_[i] = score;
  } else {
    insert_at(i, id, timestamp, score);
  }
  bump_version();
}

void Profile::fold(ItemId id, Cycle timestamp, double score) {
  const std::size_t i = lower_bound(id);
  if (i < ids_.size() && ids_[i] == id) {
    // Averaging gives equal weight to the path-aggregated score and the new
    // user's score, personalising the item profile (§II-C).
    liked_ -= scores_[i] > 0.5 ? 1 : 0;
    scores_[i] = (scores_[i] + score) / 2.0;
    liked_ += scores_[i] > 0.5 ? 1 : 0;
    timestamps_[i] = std::max(timestamps_[i], timestamp);
  } else {
    insert_at(i, id, timestamp, score);
  }
  bump_version();
}

void Profile::fold_profile(const Profile& user) {
  if (user.empty()) return;
  if (empty()) {
    // Folding into an empty item profile inserts every entry as-is.
    ids_ = user.ids_;
    timestamps_ = user.timestamps_;
    scores_ = user.scores_;
    liked_ = user.liked_;
    bump_version();
    return;
  }
  // One linear merge instead of per-entry sorted inserts (which would cost
  // O(n·m) tail moves). `user` has unique ids, so merging applies exactly
  // the same per-entry fold arithmetic in the same order.
  IdArray ids;
  CycleArray timestamps;
  ScoreArray scores;
  const std::size_t total = ids_.size() + user.ids_.size();
  ids.reserve(total);
  timestamps.reserve(total);
  scores.reserve(total);
  std::size_t liked = 0;
  std::size_t i = 0, j = 0;
  while (i < ids_.size() || j < user.ids_.size()) {
    const bool take_mine =
        j >= user.ids_.size() || (i < ids_.size() && ids_[i] < user.ids_[j]);
    const bool take_theirs =
        i >= ids_.size() || (j < user.ids_.size() && user.ids_[j] < ids_[i]);
    if (take_mine) {
      ids.push_back(ids_[i]);
      timestamps.push_back(timestamps_[i]);
      scores.push_back(scores_[i]);
      ++i;
    } else if (take_theirs) {
      ids.push_back(user.ids_[j]);
      timestamps.push_back(user.timestamps_[j]);
      scores.push_back(user.scores_[j]);
      ++j;
    } else {
      ids.push_back(ids_[i]);
      timestamps.push_back(std::max(timestamps_[i], user.timestamps_[j]));
      scores.push_back((scores_[i] + user.scores_[j]) / 2.0);
      ++i;
      ++j;
    }
    liked += scores.back() > 0.5 ? 1 : 0;
  }
  ids_ = std::move(ids);
  timestamps_ = std::move(timestamps);
  scores_ = std::move(scores);
  liked_ = liked;
  bump_version();
}

bool Profile::has_entries_older_than(Cycle cutoff) const {
  for (const Cycle t : timestamps_) {
    if (t < cutoff) return true;
  }
  return false;
}

void Profile::purge_older_than(Cycle cutoff) {
  const std::size_t n = ids_.size();
  std::size_t out = 0;
  for (std::size_t in = 0; in < n; ++in) {
    if (timestamps_[in] < cutoff) {
      liked_ -= scores_[in] > 0.5 ? 1 : 0;
      continue;
    }
    if (out != in) {
      ids_[out] = ids_[in];
      timestamps_[out] = timestamps_[in];
      scores_[out] = scores_[in];
    }
    ++out;
  }
  if (out == n) return;  // nothing removed: contents (and version) unchanged
  ids_.resize(out);
  timestamps_.resize(out);
  scores_.resize(out);
  bump_version();
}

void Profile::clear() {
  ids_.clear();
  timestamps_.clear();
  scores_.clear();
  liked_ = 0;
  version_ = 0;
  cached_norm_ = 0.0;
  norm_dirty_ = false;
}

double Profile::norm() const {
  if (norm_dirty_) {
    // Same left-to-right summation as a from-scratch scan, so the cached
    // value is bit-equal to what the seed implementation returned.
    double sum = 0.0;
    for (const double s : scores_) sum += s * s;
    cached_norm_ = std::sqrt(sum);
    norm_dirty_ = false;
  }
  return cached_norm_;
}

}  // namespace whatsup
