// Profiles (paper §II-B/§II-C): sets of <item id, timestamp, score> triplets
// with a single entry per item.
//
//  * User profiles carry binary scores (1 = like, 0 = dislike) and are
//    updated whenever the user opines on an item (Alg. 1 lines 5/7/14).
//  * Item profiles carry real scores in [0,1], built by aggregating the
//    profiles of the users who liked the item along its dissemination path
//    (`fold` implements addToNewsProfile: average with the existing score,
//    insert otherwise).
//
// Both are purged of entries older than the profile window (§II-E).
//
// Layout: structure-of-arrays (parallel id / timestamp / score arrays,
// all sorted by ascending id). The similarity kernels stream the id and
// score arrays only, so the merge loop touches 8-byte lanes instead of
// 24-byte structs. The arrays are small-buffer-optimized (kInlineEntries
// inline slots each): profiles at or below that size live entirely inside
// the Profile object, so copying or CoW-cloning them performs no heap
// allocation (see docs/perf.md, "Payload memory"). Profiles additionally
// carry:
//
//  * a content `version()` — a globally unique stamp bumped on every
//    content change. Equal versions imply equal contents (copies inherit
//    the stamp; empty profiles are normalized to version 0), which is what
//    the descriptor snapshot cache and the wire link tables key on;
//  * an incrementally maintained `liked_count()` (exact integer math);
//  * a lazily cached `norm()`, recomputed with the same left-to-right
//    summation as a fresh scan so cached and fresh values are bit-equal
//    (a running norm² under removals would drift in the last ulp and
//    break fixed-seed reproducibility).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "common/ids.hpp"
#include "common/small_vector.hpp"

namespace whatsup {

struct ProfileEntry {
  ItemId id = 0;
  Cycle timestamp = 0;
  double score = 0.0;

  bool operator==(const ProfileEntry&) const = default;
};

// A fresh, never-before-drawn content version (never 0). Profiles stamp
// every content change with one; so do arena records built from bytes
// that arrived over the wire (profile/compact.hpp).
std::uint64_t next_profile_version();

class Profile {
 public:
  // Inline slots per parallel array; profiles up to this size are stored
  // entirely within the object (no heap traffic on copy/clone).
  static constexpr std::size_t kInlineEntries = 8;

  Profile() = default;

  std::size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  bool contains(ItemId id) const;
  std::optional<double> score(ItemId id) const;
  std::optional<ProfileEntry> find(ItemId id) const;

  // Inserts or overwrites the entry for `id` (user-profile update).
  void set(ItemId id, Cycle timestamp, double score);

  // addToNewsProfile (Alg. 1 lines 18-22): averages with the existing score
  // when present, inserts the triplet otherwise. Used on item profiles.
  void fold(ItemId id, Cycle timestamp, double score);

  // Folds every entry of `user` into this item profile (Alg. 1 lines 3-4).
  void fold_profile(const Profile& user);

  // Removes entries strictly older than `cutoff` (profile window, §II-E).
  void purge_older_than(Cycle cutoff);

  // Parallel arrays sorted by ascending item id (stable iteration order
  // for the similarity kernels).
  std::span<const ItemId> ids() const { return {ids_.data(), ids_.size()}; }
  std::span<const Cycle> timestamps() const {
    return {timestamps_.data(), timestamps_.size()};
  }
  std::span<const double> scores() const {
    return {scores_.data(), scores_.size()};
  }
  ProfileEntry entry(std::size_t i) const {
    return ProfileEntry{ids_[i], timestamps_[i], scores_[i]};
  }

  // Number of entries with score > 0.5 (the "liked" items of a binary
  // profile; a coarse but monotone proxy for real-valued item profiles).
  // Maintained incrementally — O(1).
  std::size_t liked_count() const { return liked_; }

  // Euclidean norm of the score vector. Cached; recomputed only after a
  // content change.
  double norm() const;

  // Globally unique content stamp: changes whenever the contents change,
  // and two profiles with the same version have equal contents. Empty
  // profiles always report version 0.
  std::uint64_t version() const { return version_; }

  void clear();

  bool operator==(const Profile& other) const {
    return ids_ == other.ids_ && timestamps_ == other.timestamps_ &&
           scores_ == other.scores_;
  }

  // True iff any entry has a timestamp strictly older than `cutoff`, i.e.
  // purge_older_than(cutoff) would change the contents. Lets shared
  // (copy-on-write) holders skip the clone when the purge is a no-op.
  bool has_entries_older_than(Cycle cutoff) const;

 private:
  // The lossless codec (profile/compact.hpp) restores contents, version,
  // liked count and the cached norm directly, so a decoded profile is
  // bit-indistinguishable from a copy of the encoded one.
  friend class CompactProfile;

  // Sorted by id; profiles stay small (bounded by the profile window), so
  // flat sorted arrays beat node-based maps on both speed and memory.
  using IdArray = SmallVector<ItemId, kInlineEntries>;
  using CycleArray = SmallVector<Cycle, kInlineEntries>;
  using ScoreArray = SmallVector<double, kInlineEntries>;
  IdArray ids_;
  CycleArray timestamps_;
  ScoreArray scores_;

  std::size_t liked_ = 0;
  std::uint64_t version_ = 0;
  mutable double cached_norm_ = 0.0;
  mutable bool norm_dirty_ = false;

  // Index of the first entry with ids_[i] >= id.
  std::size_t lower_bound(ItemId id) const;
  // Inserts into all three parallel arrays at position i (liked_ updated;
  // caller bumps the version).
  void insert_at(std::size_t i, ItemId id, Cycle timestamp, double score);
  // Stamps a content change: fresh unique version (0 when now empty) and
  // norm invalidation.
  void bump_version();
};

}  // namespace whatsup
