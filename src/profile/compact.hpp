// Compact profile snapshots in a per-run slab arena — the storage layer
// behind every net::Descriptor and every news payload's item profile.
//
// A descriptor used to carry a deep `shared_ptr<const Profile>` snapshot:
// ~230 bytes of SoA storage per copy (plus heap spill past 8 entries),
// duplicated across every view and in-flight message that referenced the
// same profile generation. PR 7 replaced that with interned delta-encoded
// records behind pointer-sized intrusive handles; this header finishes the
// diet by moving the records into chunked slab storage addressed by a
// 32-bit index, so the handles themselves shrink pointer → u32 and a whole
// descriptor packs into 8 bytes (net/message.hpp). Pieces:
//
//  * `CompactProfile` — an immutable, losslessly delta-encoded profile
//    record: a 1-bit-per-entry mask for binary score vectors (user
//    profiles are all 0/1; real-valued item-profile scores fall back to
//    raw 8-byte doubles), then varint zigzag deltas for the (ascending,
//    dense) item ids, then for the timestamps. The header keeps the
//    source profile's `version()`, its cached `norm()` and
//    `liked_count()`, so decoding reproduces a Profile that is
//    bit-indistinguishable from a copy of the source — which is what
//    keeps fixed-seed digest trajectories identical under this storage
//    change. Records live in arena slabs, never on the general heap (only
//    oversized encoded payloads spill).
//  * `ProfileHandle` — the 4-byte value caches and cold paths hold (an
//    intrusive refcount on the slab record, addressed by arena index).
//    The scoring loops never decode: SimilarityScorer
//    (profile/similarity.hpp) reads a candidate's score block and id
//    deltas straight from the record. `decode()` rebuilds a full Profile
//    by value for the cold paths (cold start, tests).
//  * `DescriptorRef` — the tagged 4-byte payload of a packed descriptor:
//    either an index into the arena's stamp-record pool (a tiny refcounted
//    {timestamp, profile} pair shared by every copy of one descriptor
//    generation), or — for profile-less bootstrap descriptors — the
//    timestamp itself stored inline, costing no arena record at all.
//  * `SnapshotArena` — the process-wide slab arena: chunked pools with
//    per-chunk freelists (empty chunks are retired and their slabs freed —
//    the "compaction" step) and a content-keyed intern table so the wire
//    codec re-interns identical snapshots arriving repeatedly from other
//    fragments. A local profile generation is encoded once per node, by
//    the node's ProfileSnapshotCache (profile/snapshot.hpp), into a
//    DETACHED record; detached records and stamp records free as soon as
//    their last holder drops. The content table owns a reference per
//    entry, so its dead entries are swept when it doubles past its last
//    swept size. News item profiles are detached records in a pool of
//    their own (item_record below).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/small_vector.hpp"
#include "profile/profile.hpp"

namespace whatsup {

class ProfileHandle;
class SnapshotArena;

// Slab addresses: 32-bit indices into a SnapshotArena pool. The top of the
// index space is reserved so DescriptorRef can tag non-index payloads, and
// bit 30 marks an index into the item-record pool (item_record below).
using ArenaIndex = std::uint32_t;
inline constexpr ArenaIndex kNullArenaIndex = 0xFFFFFFFFu;
inline constexpr ArenaIndex kItemRecordTag = 1u << 30;

// A record's contents as they cross a process boundary (net/wire.hpp ships
// them verbatim): entry count, flags and encoded bytes, plus the header
// fields a receiver derives from the bytes. `bytes` is borrowed, never
// owned.
struct RecordImage {
  std::uint32_t count = 0;
  std::uint8_t flags = 0;
  std::span<const std::uint8_t> bytes;
  std::uint32_t liked = 0;
  double norm = 0.0;
  Cycle oldest = std::numeric_limits<Cycle>::max();
};

class CompactProfile {
 public:
  // Encodes an immutable DETACHED record of `profile`'s current contents
  // (no intern-table entry; freed when the last handle drops). Descriptor
  // snapshots go through ProfileHandle::snapshot instead, which shares one
  // record among all empty profiles.
  static ProfileHandle encode(const Profile& profile);

  // Restores the exact source contents (ids/timestamps/scores, version,
  // liked count, cached norm) into `out`.
  void decode_into(Profile& out) const;

  std::size_t size() const { return count_; }
  std::uint64_t version() const { return version_; }
  // This record's arena index (what a ProfileHandle to it holds).
  ArenaIndex slot() const { return slot_; }
  double norm() const { return norm_; }
  std::size_t liked_count() const { return liked_; }
  // The smallest entry timestamp (kNoOldest for an empty record): a window
  // purge can tell from the header alone whether it would drop anything.
  static constexpr Cycle kNoOldest = std::numeric_limits<Cycle>::max();
  Cycle oldest_timestamp() const { return oldest_; }

  // The encoded sections a streaming reader needs (SimilarityScorer): the
  // score block comes first, so the id deltas start at a fixed offset and
  // a scorer never walks the timestamp varints.
  bool binary_scores() const { return (flags_ & kBinaryScores) != 0; }
  const std::uint8_t* score_block() const { return bytes_.data(); }
  const std::uint8_t* id_deltas() const {
    return bytes_.data() + (binary_scores() ? (count_ + 7) / 8 : count_ * sizeof(double));
  }

  // This record's image (sender side of the wire; header fields copied).
  RecordImage image() const;

  // Validates `bytes` as the body of a record of `count` (>= 1) entries
  // with `flags`, in one pass, and fills `out` (bytes borrowed, liked,
  // norm and oldest derived) on success. Accepts exactly what encode()
  // writes, so equal contents always arrive as equal bytes: ids strictly
  // ascending without wrapping, timestamps within Cycle, minimal varints,
  // every byte used, zero mask padding, and raw doubles only when some
  // score is neither 0 nor 1. The norm is Profile::norm()'s left-to-right
  // sum, bit for bit.
  static bool parse_image(std::uint64_t count, std::uint8_t flags,
                          std::span<const std::uint8_t> bytes, RecordImage& out);

  // Encoded payload bytes (observability; excludes the record header).
  std::size_t encoded_bytes() const { return bytes_.size(); }
  // Full resident cost of this record: slab slot + any heap spill.
  std::size_t resident_bytes() const { return sizeof(CompactProfile) + spill_bytes(); }
  // Heap bytes of an encoded payload too large for the inline buffer.
  std::size_t spill_bytes() const {
    return bytes_.capacity() > kInlineBytes ? bytes_.capacity() : 0;
  }

 private:
  friend class ProfileHandle;
  friend class DescriptorRef;
  friend class SnapshotArena;
  template <typename Record>
  friend class SlabPool;

  static constexpr std::size_t kInlineBytes = 24;
  static constexpr std::uint8_t kBinaryScores = 1;  // flags bit

  CompactProfile() = default;
  ~CompactProfile() = default;

  // Fills this (freshly constructed) record from `profile`. The norm cache
  // is warmed (and captured) here, so decoded copies can be shared across
  // shard workers without racing on the lazy norm.
  void init_from(const Profile& profile);
  // Fills this record from a parsed image under a fresh version.
  void init_from(const RecordImage& image);

  // Intrusive reference count: one count per live ProfileHandle (plus one
  // per stamp record referencing this blob, plus one held by the content
  // table while the record is interned there). Atomic because descriptors
  // holding the same record are copied and dropped from concurrent shard
  // workers. The release slow path returns the slot to the arena.
  void retain() const { refs_.fetch_add(1, std::memory_order_relaxed); }
  void release() const;
  std::uint32_t ref_count() const { return refs_.load(std::memory_order_acquire); }

  mutable std::atomic<std::uint32_t> refs_{1};
  ArenaIndex slot_ = kNullArenaIndex;  // own index (release → freelist)
  std::uint64_t version_ = 0;
  double norm_ = 0.0;
  std::uint32_t count_ = 0;
  std::uint32_t liked_ = 0;
  std::uint8_t flags_ = 0;
  Cycle oldest_ = kNoOldest;  // sits in the padding after flags_
  // Layout: [score mask | raw doubles][id deltas][timestamp deltas].
  SmallVector<std::uint8_t, kInlineBytes> bytes_;
};

// Every live snapshot and every in-flight item profile is one of these
// slab slots, so a header field that grew the record would grow them all.
static_assert(sizeof(void*) != 8 || sizeof(CompactProfile) == 88,
              "CompactProfile header fields must fit the existing padding");

// A descriptor generation: the timestamp its owner stamped at emission plus
// the profile snapshot it shipped. Every copy of the descriptor (views,
// in-flight messages, merge buffers) shares one record by refcount, so the
// per-copy cost is the 4-byte index, not the record. The snapshot's entry
// count — polled by the wire-size model for every message — is
// denormalized into the record at creation (immutable on the blob), so a
// size query costs one slab lookup instead of chasing stamp → blob across
// chunks.
struct StampRecord {
  mutable std::atomic<std::uint32_t> refs{1};
  Cycle timestamp = kNoCycle;
  ArenaIndex blob = kNullArenaIndex;  // kNullArenaIndex: bare address, no snapshot
  std::uint32_t size = 0;             // blob entry count (0 when no blob)
};

// Chunked slab pool: records live in fixed-size chunks addressed by a
// 32-bit index (chunk number · slot), with a per-chunk freelist. Lookups
// are lock-free (an atomic chunk-pointer table); allocate/free take the
// pool mutex. A chunk whose records all died is RETIRED — its slab is
// freed and its slots leave the freelist — and lazily revived (fresh slab)
// if the pool grows again: freeing dead generations thereby compacts the
// arena instead of only recycling slots.
template <typename Record>
class SlabPool {
 public:
  static constexpr std::uint32_t kChunkShift = 12;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;
  // 32768 chunks × 4096 slots = 2^27 addressable records, below both the
  // item-record tag (bit 30) and DescriptorRef's tag bit (bit 31).
  static constexpr std::uint32_t kMaxChunks = 1u << 15;

  // The chunk-pointer table comes zeroed from calloc, so only the pages
  // of chunks in use ever become resident (256 KiB per pool otherwise).
  SlabPool() : chunks_(static_cast<Slot**>(std::calloc(kMaxChunks, sizeof(Slot*)))) {
    if (chunks_ == nullptr) throw std::bad_alloc();
  }
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;
  ~SlabPool() {
    for (std::uint32_t c = 0; c < meta_.size(); ++c) {
      delete[] slab(c).load(std::memory_order_relaxed);
    }
  }

  // Lock-free: callers hold a reference on the record (directly or through
  // a handle), which pins the chunk (live > 0 chunks are never retired).
  Record* get(ArenaIndex index) const {
    Slot* chunk = slab(index >> kChunkShift).load(std::memory_order_acquire);
    return chunk[index & (kChunkSlots - 1)].record();
  }

  // Allocates a slot and default-constructs a Record in it.
  ArenaIndex allocate() {
    std::lock_guard<std::mutex> lock(mu_);
    while (!free_chunks_.empty()) {
      const std::uint32_t c = free_chunks_.back();
      Slot* chunk = slab(c).load(std::memory_order_relaxed);
      if (chunk == nullptr || meta_[c].free_head == kNullArenaIndex) {
        free_chunks_.pop_back();  // stale entry (retired or drained chunk)
        continue;
      }
      const ArenaIndex index = meta_[c].free_head;
      Slot& slot = chunk[index & (kChunkSlots - 1)];
      meta_[c].free_head = slot.next_free();
      ++meta_[c].live;
      ++live_;
      new (slot.storage) Record();
      return index;
    }
    return allocate_in_new_chunk();
  }

  // Destroys the record and recycles the slot; retires fully-dead chunks
  // (keeping the newest chunk warm against alloc/free oscillation).
  void free(ArenaIndex index) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint32_t c = index >> kChunkShift;
    Slot* chunk = slab(c).load(std::memory_order_relaxed);
    Slot& slot = chunk[index & (kChunkSlots - 1)];
    slot.record()->~Record();
    slot.next_free() = meta_[c].free_head;
    meta_[c].free_head = index;
    --meta_[c].live;
    --live_;
    if (meta_[c].live == 0 && c != newest_chunk_) {
      slab(c).store(nullptr, std::memory_order_release);
      delete[] chunk;
      meta_[c].free_head = kNullArenaIndex;
      ++retired_;
    } else if (slot.next_free() == kNullArenaIndex) {
      free_chunks_.push_back(c);  // chunk re-entered the freelist
    }
  }

  struct Stats {
    std::size_t live = 0;           // constructed records
    std::size_t chunks = 0;         // slabs currently allocated
    std::size_t retired = 0;        // slabs freed by compaction (lifetime)
    std::size_t resident_bytes = 0; // slab storage held right now
  };
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    Stats s;
    s.live = live_;
    s.retired = retired_;
    for (std::uint32_t c = 0; c < meta_.size(); ++c) {
      if (slab(c).load(std::memory_order_relaxed) != nullptr) ++s.chunks;
    }
    s.resident_bytes = s.chunks * kChunkSlots * sizeof(Slot);
    return s;
  }

 private:
  struct Slot {
    alignas(Record) unsigned char storage[sizeof(Record)];
    Record* record() { return std::launder(reinterpret_cast<Record*>(storage)); }
    // Vacant slots overlay the freelist link on the record storage.
    std::uint32_t& next_free() {
      return *reinterpret_cast<std::uint32_t*>(storage);
    }
  };
  static_assert(sizeof(Record) >= sizeof(std::uint32_t));

  struct ChunkMeta {
    std::uint32_t live = 0;
    ArenaIndex free_head = kNullArenaIndex;
  };

  // Caller holds mu_. Revives a retired chunk or appends a new one.
  ArenaIndex allocate_in_new_chunk() {
    std::uint32_t c = 0;
    while (c < meta_.size() &&
           slab(c).load(std::memory_order_relaxed) != nullptr) {
      ++c;
    }
    if (c == meta_.size()) meta_.emplace_back();
    Slot* chunk = new Slot[kChunkSlots];
    const ArenaIndex base = c << kChunkShift;
    for (std::uint32_t i = 1; i < kChunkSlots - 1; ++i) {
      chunk[i].next_free() = base + i + 1;
    }
    chunk[kChunkSlots - 1].next_free() = kNullArenaIndex;
    meta_[c].free_head = base + 1;  // slot 0 is handed out below
    meta_[c].live = 1;
    ++live_;
    slab(c).store(chunk, std::memory_order_release);
    newest_chunk_ = c;
    free_chunks_.push_back(c);
    new (chunk[0].storage) Record();
    return base;
  }

  // Chunk c's slab, read lock-free by get() and written under mu_.
  std::atomic_ref<Slot*> slab(std::uint32_t c) const {
    return std::atomic_ref<Slot*>(chunks_.get()[c]);
  }

  struct FreeDeleter {
    void operator()(Slot** table) const { std::free(table); }
  };

  mutable std::mutex mu_;
  std::unique_ptr<Slot*, FreeDeleter> chunks_;
  std::vector<ChunkMeta> meta_;
  // Chunk ids that may hold free slots (lazily pruned stack).
  std::vector<std::uint32_t> free_chunks_;
  std::uint32_t newest_chunk_ = 0;
  std::size_t live_ = 0;
  std::size_t retired_ = 0;
};

class ProfileHandle {
 public:
  ProfileHandle() = default;
  // Bootstrap descriptors ship bare addresses: a null handle means "no
  // snapshot", which view refresh treats differently from an empty profile.
  ProfileHandle(std::nullptr_t) {}

  ProfileHandle(const ProfileHandle& other);
  ProfileHandle(ProfileHandle&& other) noexcept : slot_(other.slot_) {
    other.slot_ = kNullArenaIndex;
  }
  ProfileHandle& operator=(const ProfileHandle& other) {
    ProfileHandle copy(other);
    std::swap(slot_, copy.slot_);
    return *this;
  }
  ProfileHandle& operator=(ProfileHandle&& other) noexcept {
    std::swap(slot_, other.slot_);
    return *this;
  }
  ~ProfileHandle();

  // Takes ownership of one reference to the record at `slot` (no retain).
  static ProfileHandle adopt(ArenaIndex slot) {
    ProfileHandle handle;
    handle.slot_ = slot;
    return handle;
  }

  // A detached snapshot of `profile`'s current contents; every empty
  // (version-0) profile shares empty_profile_handle(). Send paths go
  // through their node's ProfileSnapshotCache, which encodes each
  // generation once.
  static ProfileHandle snapshot(const Profile& profile);

  // A decoded copy of the snapshot (cold paths; the scoring loops read
  // the record itself). Null handles decode to an empty Profile.
  Profile decode() const;

  // Header reads that do NOT decode.
  std::size_t size() const;
  bool empty() const { return size() == 0; }
  std::uint64_t version() const;

  ArenaIndex slot() const { return slot_; }
  const CompactProfile* record() const;
  const CompactProfile* operator->() const { return record(); }
  long use_count() const;

  explicit operator bool() const { return slot_ != kNullArenaIndex; }
  bool operator==(std::nullptr_t) const { return slot_ == kNullArenaIndex; }
  bool operator==(const ProfileHandle& other) const = default;

 private:
  ArenaIndex slot_ = kNullArenaIndex;
};

static_assert(sizeof(ProfileHandle) == 4,
              "handles are meant to be arena indices, not pointers");

// Shared handle for empty profiles (version 0): non-null — an explicitly
// empty snapshot is distinct from a bootstrap descriptor with no snapshot.
const ProfileHandle& empty_profile_handle();

// ---- Item profiles on the news path ---------------------------------------
//
// A BEEP news payload carries its path-dependent item profile (paper §II-A,
// Alg. 1) as a handle to a DETACHED record: never interned, freed when the
// last payload copy drops; a null handle is the empty profile. Records are
// immutable, so a fan-out of fLIKE copies bumps a refcount and no hop can
// change a copy already in flight (another shard's mailbox included); a hop
// that changes the profile writes a fresh record (whatsup/node.hpp).
//
// Item records live in their own slab pool: they churn once per like hop,
// and in the snapshot pool they would contend for its mutex and shift the
// indices of user snapshots, which the wire link tables place by index.

// A detached item record of `profile`, or null when it is empty. Item
// records are never descriptor snapshots (DescriptorRef::make).
ProfileHandle item_record(const Profile& profile);
// A detached item record holding a parsed image's bytes (the wire decoder;
// count >= 1), under a fresh version.
ProfileHandle item_record(const RecordImage& image);

// The 4-byte payload of a packed net::Descriptor: (timestamp, snapshot) of
// one descriptor generation. Three encodings in one u32:
//
//   bits_ == kNullBits          — null: no record, timestamp() == kNoCycle.
//   bit 31 set                  — profile-less descriptor with the 31-bit
//                                 timestamp stored INLINE (bootstrap seeds
//                                 cost no arena record at all).
//   otherwise                   — index of an arena StampRecord, shared by
//                                 refcount with every copy of the
//                                 generation.
class DescriptorRef {
 public:
  DescriptorRef() = default;
  DescriptorRef(std::nullptr_t) {}

  DescriptorRef(const DescriptorRef& other);
  DescriptorRef(DescriptorRef&& other) noexcept : bits_(other.bits_) {
    other.bits_ = kNullBits;
  }
  DescriptorRef& operator=(const DescriptorRef& other) {
    DescriptorRef copy(other);
    std::swap(bits_, copy.bits_);
    return *this;
  }
  DescriptorRef& operator=(DescriptorRef&& other) noexcept {
    std::swap(bits_, other.bits_);
    return *this;
  }
  ~DescriptorRef();

  // One generation: the emission timestamp plus the (possibly null)
  // snapshot. Profile-less refs with an inline-representable timestamp
  // allocate nothing.
  static DescriptorRef make(Cycle timestamp, const ProfileHandle& profile);

  Cycle timestamp() const;
  bool has_profile() const;
  std::uint64_t profile_version() const;
  std::size_t profile_size() const;
  // Retained handle on the snapshot (cold paths); null when !has_profile().
  ProfileHandle profile() const;
  // The snapshot record itself, borrowed for as long as this ref lives
  // (what SimilarityScorer scores); nullptr when !has_profile().
  const CompactProfile* snapshot() const;
  // A decoded copy of the snapshot; null refs decode to an empty Profile.
  Profile decode() const;
  // Cache hints a scoring sweep emits a few candidates ahead of
  // snapshot(): kStamp pulls the stamp record, kBlob the blob record it
  // names, kBytes the blob's encoded bytes. Each stage reads what the
  // previous one pulled, so a sweep emits them at decreasing distances.
  enum class Prefetch { kStamp, kBlob, kBytes };
  void prefetch(Prefetch stage) const;

  bool is_null() const { return bits_ == kNullBits; }

 private:
  friend class SnapshotArena;

  static constexpr std::uint32_t kNullBits = 0x7FFFFFFFu;
  static constexpr std::uint32_t kInlineTag = 0x80000000u;
  // Inline-representable timestamps: 31-bit two's complement.
  static constexpr std::int64_t kInlineMin = -(std::int64_t{1} << 30);
  static constexpr std::int64_t kInlineMax = (std::int64_t{1} << 30) - 1;

  bool is_inline() const { return (bits_ & kInlineTag) != 0; }
  bool is_record() const { return !is_inline() && bits_ != kNullBits; }
  Cycle inline_timestamp() const {
    // Sign-extend the low 31 bits.
    const auto low = static_cast<std::uint32_t>(bits_ & ~kInlineTag);
    return static_cast<Cycle>((low ^ (1u << 30)) - (1u << 30));
  }
  const StampRecord* record() const;

  std::uint32_t bits_ = kNullBits;
};

static_assert(sizeof(DescriptorRef) == 4);

class SnapshotArena {
 public:
  // Inline (header-defined below): every descriptor copy/drop funnels
  // through here, ~10^8 times per bench run, so the lookup must compile to
  // a guard check + load, not a cross-TU call.
  static SnapshotArena& instance();

  // Content-keyed intern for snapshots arriving over the wire: the
  // sender's version stamps are process-local and meaningless here, so
  // identical payloads re-arriving across fragment barriers must dedupe by
  // CONTENT or every arrival would hold its own record. A parsed image is
  // canonical, so the key hashes its bytes as received: a hit retains the
  // existing record without allocating, a miss builds one from the bytes
  // under a fresh version — versions only key caches, never behavior.
  // `image.count` must be >= 1. Thread-safe. While obs::enabled(), the
  // exact counters `arena.content.hits` / `arena.content.misses` count
  // the two outcomes.
  ProfileHandle intern_image(const RecordImage& image);

  // Detached record: no intern-table entry, freed when the last reference
  // drops (every local snapshot, the empty-profile singleton).
  ProfileHandle encode_detached(const Profile& profile);

  // A stamp record for (timestamp, profile); retains the blob. Returns the
  // new record's index with its initial reference owned by the caller.
  ArenaIndex make_stamp(Cycle timestamp, const ProfileHandle& profile);

  // Sweeps the content table now, dropping every entry whose record has
  // no holder beyond the table's own reference (tests; inserts sweep on
  // their own once the table doubles).
  void purge_dead();

  struct Stats {
    std::size_t entries = 0;        // content-table entries
    std::uint64_t interned = 0;     // records the content table took in
    std::uint64_t reused = 0;       // content-table hits on a live record
    std::uint64_t purged = 0;       // dead content-table entries swept
    // Heap bytes live records of both record pools spilled past their
    // inline buffer (CompactProfile::spill_bytes); the pool stats count
    // slab slots only.
    std::size_t spill_bytes = 0;
    SlabPool<CompactProfile>::Stats blobs;
    SlabPool<CompactProfile>::Stats items;  // item records
    SlabPool<StampRecord>::Stats stamps;
  };
  Stats stats() const;

  // ---- record plumbing (handles and inline accessors; not for callers) --
  const CompactProfile* blob(ArenaIndex index) const {
    return blob_pool_.get(index);
  }
  // Either pool, by the index's item tag (what a ProfileHandle addresses).
  const CompactProfile* record(ArenaIndex index) const {
    return (index & kItemRecordTag) == 0 ? blob_pool_.get(index)
                                         : item_pool_.get(index & ~kItemRecordTag);
  }
  const StampRecord* stamp(ArenaIndex index) const {
    return stamp_pool_.get(index);
  }
  void retain_stamp(ArenaIndex index) const {
    stamp_pool_.get(index)->refs.fetch_add(1, std::memory_order_relaxed);
  }
  // Inline fast path: one decrement per descriptor drop. Only the last
  // holder takes the out-of-line free (blob release + slot recycle).
  void release_stamp(ArenaIndex index) {
    StampRecord* rec = stamp_pool_.get(index);
    if (rec->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      free_stamp(index, rec);
    }
  }
  void free_blob(const CompactProfile* record);
  ProfileHandle encode_item(const Profile& profile);  // item_record
  ProfileHandle encode_item(const RecordImage& image);

 private:
  SnapshotArena() = default;

  // Encodes a fresh record in `pool` (slot + init) and returns its index,
  // tagged with `tag`; the caller owns the reference.
  ArenaIndex encode_record(SlabPool<CompactProfile>& pool, ArenaIndex tag,
                           const Profile& profile);
  ArenaIndex encode_blob(const Profile& profile);  // the snapshot pool
  // A fresh record in `pool` built from a parsed image (tagged like
  // encode_record); the caller owns the reference.
  ArenaIndex build_record(SlabPool<CompactProfile>& pool, ArenaIndex tag,
                          const RecordImage& image);
  // Drops every table-only entry of the content table (caller holds
  // content_mu_).
  void sweep_content();
  // release_stamp slow path: frees `rec` (whose count just hit zero).
  void free_stamp(ArenaIndex index, StampRecord* rec);

  SlabPool<CompactProfile> blob_pool_;
  SlabPool<CompactProfile> item_pool_;
  SlabPool<StampRecord> stamp_pool_;
  std::atomic<std::size_t> spill_bytes_{0};  // Stats::spill_bytes

  // The content table owns one reference per entry; an entry whose record
  // has ref_count() == 1 has no outside holder left and is swept. A key
  // cannot gain a new holder except through intern_image (which
  // takes content_mu_) or by copying an existing handle (none exist at
  // count 1), so the sweep's release-and-erase under the mutex cannot race
  // a revive. The mutex serves engines decoding in parallel threads of one
  // process (partitioned runs in tests).
  mutable std::mutex content_mu_;
  std::unordered_map<std::uint64_t, ArenaIndex> content_;
  // Inserts sweep once the table doubles past its last swept size.
  std::size_t sweep_at_ = 64;
  std::uint64_t interned_ = 0;
  std::uint64_t reused_ = 0;
  std::uint64_t purged_ = 0;
};

// ---- inline definitions ---------------------------------------------------

inline SnapshotArena& SnapshotArena::instance() {
  // Deliberately leaked: static handles (empty_profile_handle, test
  // fixtures) release through the arena at exit, so it must outlive every
  // other static-duration object. Defined inline because every handle and
  // descriptor refcount op routes through it — out-of-line this was ~10^8
  // calls per bench run.
  static SnapshotArena* arena = new SnapshotArena();
  return *arena;
}

inline void CompactProfile::release() const {
  if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    SnapshotArena::instance().free_blob(this);
  }
}

inline ProfileHandle::ProfileHandle(const ProfileHandle& other)
    : slot_(other.slot_) {
  if (slot_ != kNullArenaIndex) record()->retain();
}

inline ProfileHandle::~ProfileHandle() {
  if (slot_ != kNullArenaIndex) record()->release();
}

inline const CompactProfile* ProfileHandle::record() const {
  return slot_ == kNullArenaIndex ? nullptr
                                  : SnapshotArena::instance().record(slot_);
}

inline std::size_t ProfileHandle::size() const {
  return slot_ == kNullArenaIndex ? 0 : record()->size();
}

inline std::uint64_t ProfileHandle::version() const {
  return slot_ == kNullArenaIndex ? 0 : record()->version();
}

inline long ProfileHandle::use_count() const {
  return slot_ == kNullArenaIndex ? 0 : record()->ref_count();
}

inline DescriptorRef::DescriptorRef(const DescriptorRef& other)
    : bits_(other.bits_) {
  if (is_record()) SnapshotArena::instance().retain_stamp(bits_);
}

inline DescriptorRef::~DescriptorRef() {
  if (is_record()) SnapshotArena::instance().release_stamp(bits_);
}

inline const StampRecord* DescriptorRef::record() const {
  return SnapshotArena::instance().stamp(bits_);
}

inline Cycle DescriptorRef::timestamp() const {
  if (is_inline()) return inline_timestamp();
  if (bits_ == kNullBits) return kNoCycle;
  return record()->timestamp;
}

inline bool DescriptorRef::has_profile() const {
  return is_record() && record()->blob != kNullArenaIndex;
}

inline std::uint64_t DescriptorRef::profile_version() const {
  const CompactProfile* blob = snapshot();
  return blob == nullptr ? 0 : blob->version();
}

inline std::size_t DescriptorRef::profile_size() const {
  if (!is_record()) return 0;
  return record()->size;  // denormalized from the blob at make_stamp
}

inline ProfileHandle DescriptorRef::profile() const {
  if (!is_record()) return ProfileHandle();
  const StampRecord* rec = record();
  if (rec->blob == kNullArenaIndex) return ProfileHandle();
  SnapshotArena::instance().blob(rec->blob)->retain();
  return ProfileHandle::adopt(rec->blob);
}

inline const CompactProfile* DescriptorRef::snapshot() const {
  if (!is_record()) return nullptr;
  const StampRecord* rec = record();
  if (rec->blob == kNullArenaIndex) return nullptr;
  return SnapshotArena::instance().blob(rec->blob);
}

inline void DescriptorRef::prefetch(Prefetch stage) const {
  if (!is_record()) return;
  const SnapshotArena& arena = SnapshotArena::instance();
  const StampRecord* rec = arena.stamp(bits_);
  if (stage == Prefetch::kStamp) {
    __builtin_prefetch(rec);
    return;
  }
  if (rec->blob == kNullArenaIndex) return;
  const CompactProfile* blob = arena.blob(rec->blob);
  if (stage == Prefetch::kBlob) {
    __builtin_prefetch(blob);
  } else {
    __builtin_prefetch(blob->score_block());
  }
}

}  // namespace whatsup
