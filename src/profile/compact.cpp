#include "profile/compact.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
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

// Content-table key of a record body: 8 bytes per multiply, the tail
// zero-padded into one last word. Hits are verified byte for byte, so the
// key only has to spread well.
std::uint64_t content_key(std::uint32_t count, std::uint8_t flags,
                          std::span<const std::uint8_t> bytes) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
  const auto mix = [](std::uint64_t h, std::uint64_t word) {
    h = (h ^ word) * kMul;
    return h ^ (h >> 32);
  };
  std::uint64_t h = mix((std::uint64_t{count} << 8) | flags, bytes.size());
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    h = mix(h, word);
  }
  if (n != 0) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, n);
    h = mix(h, word);
  }
  return h;
}

// Bounds-checked reader of one minimal LEB128 varint inside a record body
// (a received body is untrusted; common/varint.hpp's reader is not).
// False on truncation, on more than 64 bits, and on a redundant trailing
// zero byte (an over-long encoding of a smaller value).
bool read_canonical_varint(const std::uint8_t*& p, const std::uint8_t* end,
                           std::uint64_t& v) {
  v = 0;
  for (unsigned shift = 0; p != end; shift += 7) {
    const std::uint8_t b = *p++;
    if (shift == 63 && b > 1) return false;
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return shift == 0 || b != 0;
  }
  return false;
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

void CompactProfile::init_from(const RecordImage& image) {
  version_ = next_profile_version();
  norm_ = image.norm;
  count_ = image.count;
  liked_ = image.liked;
  flags_ = image.flags;
  oldest_ = image.oldest;
  bytes_.resize(image.bytes.size());
  std::memcpy(bytes_.data(), image.bytes.data(), image.bytes.size());
}

RecordImage CompactProfile::image() const {
  return RecordImage{count_, flags_, {bytes_.data(), bytes_.size()},
                     liked_, norm_, oldest_};
}

bool CompactProfile::parse_image(std::uint64_t count, std::uint8_t flags,
                                 std::span<const std::uint8_t> bytes,
                                 RecordImage& out) {
  // Every entry costs at least one id byte and one timestamp byte, which
  // also bounds `count` before any arithmetic on it.
  if (count == 0 || count > bytes.size() / 2 || (flags & ~kBinaryScores) != 0) {
    return false;
  }
  const std::size_t n = static_cast<std::size_t>(count);
  const bool binary = (flags & kBinaryScores) != 0;
  const std::size_t score_bytes = binary ? (n + 7) / 8 : n * sizeof(double);
  if (score_bytes > bytes.size()) return false;
  const std::uint8_t* p = bytes.data();
  const std::uint8_t* const end = p + bytes.size();
  std::uint32_t liked = 0;
  double sum = 0.0;
  if (binary) {
    for (std::size_t i = 0; i < score_bytes; ++i) {
      liked += static_cast<std::uint32_t>(std::popcount(p[i]));
    }
    // Mask bits past the last entry are zero in a canonical record.
    if (n % 8 != 0 && (p[score_bytes - 1] >> (n % 8)) != 0) return false;
    // Scores are 0 or 1, so the left-to-right sum of squares is exact.
    sum = static_cast<double>(liked);
  } else {
    bool real = false;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t word = 0;
      std::memcpy(&word, p + i * sizeof(double), sizeof(double));
      const double s = std::bit_cast<double>(word);
      real |= s != 0.0 && s != 1.0;
      liked += s > 0.5 ? 1 : 0;
      sum += s * s;
    }
    if (!real) return false;  // all 0/1 scores encode as a mask
  }
  p += score_bytes;
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t v = 0;
    if (!read_canonical_varint(p, end, v)) return false;
    const std::uint64_t next = id + static_cast<std::uint64_t>(zigzag_decode(v));
    if (i > 0 && next <= id) return false;  // strictly ascending, no wrap
    id = next;
  }
  std::int64_t ts = 0;
  Cycle oldest = kNoOldest;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t v = 0;
    if (!read_canonical_varint(p, end, v)) return false;
    // Consecutive Cycle values differ by less than 2^32; the bound also
    // keeps the running sum far from int64 overflow.
    const std::int64_t delta = zigzag_decode(v);
    if (delta < -(std::int64_t{1} << 32) || delta > (std::int64_t{1} << 32)) {
      return false;
    }
    ts += delta;
    if (ts < std::numeric_limits<Cycle>::min() ||
        ts > std::numeric_limits<Cycle>::max()) {
      return false;
    }
    oldest = std::min(oldest, static_cast<Cycle>(ts));
  }
  if (p != end) return false;  // trailing bytes
  out = RecordImage{static_cast<std::uint32_t>(n), flags, bytes, liked,
                    std::sqrt(sum), oldest};
  return true;
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

ProfileHandle item_record(const RecordImage& image) {
  return SnapshotArena::instance().encode_item(image);
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

ArenaIndex SnapshotArena::build_record(SlabPool<CompactProfile>& pool, ArenaIndex tag,
                                        const RecordImage& image) {
  const ArenaIndex slot = pool.allocate();
  CompactProfile* record = pool.get(slot);
  record->slot_ = slot | tag;
  record->init_from(image);
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

ProfileHandle SnapshotArena::encode_item(const RecordImage& image) {
  return ProfileHandle::adopt(build_record(item_pool_, kItemRecordTag, image));
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

ProfileHandle SnapshotArena::intern_image(const RecordImage& image) {
  const auto count = [](bool hit) {
    if (!obs::enabled()) return;
    static const obs::MetricId hits = obs::counter("arena.content.hits");
    static const obs::MetricId misses = obs::counter("arena.content.misses");
    obs::add(hit ? hits : misses);
  };
  const std::uint64_t key = content_key(image.count, image.flags, image.bytes);
  const auto same_contents = [&](const CompactProfile* record) {
    return record->count_ == image.count && record->flags_ == image.flags &&
           record->bytes_.size() == image.bytes.size() &&
           std::memcmp(record->bytes_.data(), image.bytes.data(), image.bytes.size()) == 0;
  };

  std::lock_guard<std::mutex> lock(content_mu_);
  const auto it = content_.find(key);
  if (it != content_.end() && same_contents(blob_pool_.get(it->second))) {
    ++reused_;
    count(true);
    blob_pool_.get(it->second)->retain();
    return ProfileHandle::adopt(it->second);
  }
  count(false);
  ProfileHandle fresh = ProfileHandle::adopt(build_record(blob_pool_, 0, image));
  // A 64-bit key collision with different contents keeps the fresh record
  // un-interned (correct, merely unshared).
  if (it != content_.end()) return fresh;
  fresh.record()->retain();  // the table's own reference
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
