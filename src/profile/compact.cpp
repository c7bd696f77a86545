#include "profile/compact.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "common/varint.hpp"
#include "obs/registry.hpp"

namespace whatsup {

namespace {

bool all_binary(std::span<const double> scores) {
  for (const double s : scores) {
    if (s != 0.0 && s != 1.0) return false;
  }
  return true;
}

std::uint64_t fnv1a64(std::uint64_t h, const std::uint8_t* bytes,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x00000100000001B3ull;
  }
  return h;
}

}  // namespace

void CompactProfile::init_from(const Profile& profile) {
  const std::size_t n = profile.size();
  version_ = profile.version();
  norm_ = profile.norm();
  count_ = static_cast<std::uint32_t>(n);
  liked_ = static_cast<std::uint32_t>(profile.liked_count());

  const std::span<const ItemId> ids = profile.ids();
  const std::span<const Cycle> timestamps = profile.timestamps();
  const std::span<const double> scores = profile.scores();
  const bool binary = all_binary(scores);
  flags_ = binary ? kBinaryScores : 0;
  oldest_ = kNoOldest;
  for (const Cycle t : timestamps) oldest_ = std::min(oldest_, t);

  // The exact size is known up front, so the bytes are written through a
  // raw cursor: no capacity check per byte (a like hop encodes a
  // real-valued item profile, ~10 bytes per entry).
  struct Cursor {
    std::uint8_t* p;
    void push_back(std::uint8_t byte) { *p++ = byte; }
  };
  const std::size_t score_bytes = binary ? (n + 7) / 8 : n * sizeof(double);
  bytes_.resize(score_bytes + delta_encoded_size(ids.data(), n) +
                delta_encoded_size(timestamps.data(), n));
  Cursor out{bytes_.data()};
  if (binary) {
    for (std::size_t base = 0; base < n; base += 8) {
      std::uint8_t mask = 0;
      for (std::size_t bit = 0; bit < 8 && base + bit < n; ++bit) {
        if (scores[base + bit] == 1.0) mask |= static_cast<std::uint8_t>(1u << bit);
      }
      out.push_back(mask);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const auto word = std::bit_cast<std::uint64_t>(scores[i]);
      for (std::size_t b = 0; b < sizeof(double); ++b) {
        out.push_back(static_cast<std::uint8_t>(word >> (8 * b)));
      }
    }
  }
  delta_encode(out, ids.data(), n);
  delta_encode(out, timestamps.data(), n);
}

ProfileHandle CompactProfile::encode(const Profile& profile) {
  return SnapshotArena::instance().encode_detached(profile);
}

void CompactProfile::decode_into(Profile& out) const {
  const std::size_t n = count_;
  out.ids_.resize(n);
  out.timestamps_.resize(n);
  out.scores_.resize(n);
  const std::uint8_t* scores = score_block();
  if (binary_scores()) {
    for (std::size_t i = 0; i < n; ++i) {
      out.scores_[i] = (scores[i / 8] >> (i % 8)) & 1u ? 1.0 : 0.0;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t word = 0;
      std::memcpy(&word, scores + i * sizeof(double), sizeof(double));
      out.scores_[i] = std::bit_cast<double>(word);
    }
  }
  const std::uint8_t* p = id_deltas();
  delta_decode(p, out.ids_.data(), n);
  delta_decode(p, out.timestamps_.data(), n);
  out.liked_ = liked_;
  out.version_ = version_;
  out.cached_norm_ = norm_;
  out.norm_dirty_ = false;
}

Profile ProfileHandle::decode() const {
  Profile out;
  if (slot_ != kNullArenaIndex) record()->decode_into(out);
  return out;
}

ProfileHandle ProfileHandle::snapshot(const Profile& profile) {
  if (profile.version() == 0) return empty_profile_handle();
  return SnapshotArena::instance().encode_detached(profile);
}

const ProfileHandle& empty_profile_handle() {
  static const ProfileHandle kEmpty =
      SnapshotArena::instance().encode_detached(Profile{});
  return kEmpty;
}

ProfileHandle item_record(const Profile& profile) {
  if (profile.empty()) return ProfileHandle();
  return SnapshotArena::instance().encode_item(profile);
}

// ---- DescriptorRef --------------------------------------------------------

Profile DescriptorRef::decode() const {
  Profile out;
  if (const CompactProfile* blob = snapshot()) blob->decode_into(out);
  return out;
}

DescriptorRef DescriptorRef::make(Cycle timestamp,
                                  const ProfileHandle& profile) {
  DescriptorRef ref;
  if (profile == nullptr) {
    if (timestamp == kNoCycle) return ref;  // null ref ≡ {kNoCycle, none}
    const auto wide = static_cast<std::int64_t>(timestamp);
    if (wide >= kInlineMin && wide <= kInlineMax) {
      ref.bits_ = kInlineTag |
                  (static_cast<std::uint32_t>(timestamp) & ~kInlineTag);
      return ref;
    }
  }
  ref.bits_ = SnapshotArena::instance().make_stamp(timestamp, profile);
  return ref;
}

// ---- SnapshotArena --------------------------------------------------------

ArenaIndex SnapshotArena::encode_record(SlabPool<CompactProfile>& pool, ArenaIndex tag,
                                        const Profile& profile) {
  const ArenaIndex slot = pool.allocate();
  CompactProfile* record = pool.get(slot);
  record->slot_ = slot | tag;
  record->init_from(profile);
  if (const std::size_t spill = record->spill_bytes(); spill != 0) {
    spill_bytes_.fetch_add(spill, std::memory_order_relaxed);
  }
  return record->slot_;
}

ArenaIndex SnapshotArena::encode_blob(const Profile& profile) {
  if (obs::enabled()) {
    static const obs::MetricId encodes = obs::counter("arena.snapshot.encodes");
    obs::add(encodes);
  }
  return encode_record(blob_pool_, 0, profile);
}

ProfileHandle SnapshotArena::encode_item(const Profile& profile) {
  return ProfileHandle::adopt(encode_record(item_pool_, kItemRecordTag, profile));
}

void SnapshotArena::free_blob(const CompactProfile* record) {
  if (const std::size_t spill = record->spill_bytes(); spill != 0) {
    spill_bytes_.fetch_sub(spill, std::memory_order_relaxed);
  }
  const ArenaIndex slot = record->slot_;
  if ((slot & kItemRecordTag) == 0) {
    blob_pool_.free(slot);
  } else {
    item_pool_.free(slot & ~kItemRecordTag);
  }
}

void SnapshotArena::free_stamp(ArenaIndex index, StampRecord* rec) {
  if (rec->blob != kNullArenaIndex) blob_pool_.get(rec->blob)->release();
  stamp_pool_.free(index);
}

ArenaIndex SnapshotArena::make_stamp(Cycle timestamp,
                                     const ProfileHandle& profile) {
  if (obs::enabled()) {
    static const obs::MetricId creates = obs::counter("arena.stamp.creates");
    obs::add(creates);
  }
  const ArenaIndex index = stamp_pool_.allocate();
  StampRecord* rec = stamp_pool_.get(index);
  rec->timestamp = timestamp;
  rec->blob = profile.slot();
  rec->size = 0;
  if (rec->blob != kNullArenaIndex) {
    const CompactProfile* blob = blob_pool_.get(rec->blob);
    blob->retain();  // the record's own blob reference
    rec->size = static_cast<std::uint32_t>(blob->size());
  }
  return index;
}

ProfileHandle SnapshotArena::encode_detached(const Profile& profile) {
  return ProfileHandle::adopt(encode_blob(profile));
}

void SnapshotArena::sweep_content() {
  for (auto it = content_.begin(); it != content_.end();) {
    const CompactProfile* record = blob_pool_.get(it->second);
    // ref_count() == 1 means the table holds the only reference: no
    // descriptor anywhere still ships this snapshot (see the revive-race
    // note on content_mu_).
    if (record->ref_count() == 1) {
      record->release();
      it = content_.erase(it);
      ++purged_;
    } else {
      ++it;
    }
  }
  sweep_at_ = content_.size() < 32 ? 64 : content_.size() * 2;
}

ProfileHandle SnapshotArena::intern_by_content(const Profile& profile) {
  if (profile.version() == 0) return empty_profile_handle();
  // Encode first: the content key is the canonical encoded record, so a
  // hash hit can be verified byte-for-byte before sharing.
  ProfileHandle fresh = encode_detached(profile);
  const CompactProfile* record = fresh.record();
  std::uint64_t key = 0xCBF29CE484222325ull;
  const std::uint32_t header[3] = {record->count_, record->liked_,
                                   record->flags_};
  key = fnv1a64(key, reinterpret_cast<const std::uint8_t*>(header),
                sizeof(header));
  key = fnv1a64(key, record->bytes_.data(), record->bytes_.size());

  std::lock_guard<std::mutex> lock(content_mu_);
  if (auto it = content_.find(key); it != content_.end()) {
    const CompactProfile* existing = blob_pool_.get(it->second);
    if (existing->count_ == record->count_ &&
        existing->liked_ == record->liked_ &&
        existing->flags_ == record->flags_ &&
        existing->bytes_ == record->bytes_) {
      ++reused_;
      existing->retain();
      return ProfileHandle::adopt(it->second);  // `fresh` frees on return
    }
    // 64-bit hash collision with different contents: fall through and keep
    // the fresh record un-interned (correct, merely unshared).
    return fresh;
  }
  record->retain();  // the table's own reference
  content_.emplace(key, fresh.slot());
  ++interned_;
  if (content_.size() >= sweep_at_) sweep_content();
  return fresh;
}

void SnapshotArena::purge_dead() {
  std::lock_guard<std::mutex> lock(content_mu_);
  sweep_content();
}

SnapshotArena::Stats SnapshotArena::stats() const {
  Stats stats;
  {
    std::lock_guard<std::mutex> lock(content_mu_);
    stats.entries = content_.size();
    stats.interned = interned_;
    stats.reused = reused_;
    stats.purged = purged_;
  }
  stats.spill_bytes = spill_bytes_.load(std::memory_order_relaxed);
  stats.blobs = blob_pool_.stats();
  stats.items = item_pool_.stats();
  stats.stamps = stamp_pool_.stats();
  return stats;
}

}  // namespace whatsup
