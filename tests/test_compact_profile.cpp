// Property tests for the compact-profile storage layer: the varint/delta
// codec underneath it, the record layout and bit-exact encode/decode round
// trips, decoded copies, and the global snapshot intern table (refcounts,
// reuse, epoch purge, cross-thread isolation).
//
// The contract that everything else in this PR leans on: a Profile decoded
// from its CompactProfile is indistinguishable — contents, version, cached
// norm, liked count — from a plain copy of the original. Anything less and
// fixed-seed digest trajectories would drift.
#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/varint.hpp"
#include "profile/compact.hpp"
#include "profile/profile.hpp"

namespace whatsup {
namespace {

// ---- varint / delta codec -------------------------------------------------

std::vector<std::uint8_t> delta_bytes(const std::vector<std::uint64_t>& values) {
  std::vector<std::uint8_t> out;
  delta_encode(out, values.data(), values.size());
  return out;
}

std::vector<std::uint64_t> delta_back(const std::vector<std::uint8_t>& bytes,
                                      std::size_t n) {
  std::vector<std::uint64_t> out(n);
  const std::uint8_t* p = bytes.data();
  delta_decode(p, out.data(), n);
  EXPECT_EQ(p, bytes.data() + bytes.size());
  return out;
}

TEST(VarintCodec, SingleValueRoundTrip) {
  const std::uint64_t probes[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  (1ull << 32) - 1,
                                  1ull << 32,
                                  (1ull << 63),
                                  std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : probes) {
    std::vector<std::uint8_t> buf;
    varint_append(buf, v);
    EXPECT_EQ(buf.size(), varint_size(v));
    const std::uint8_t* p = buf.data();
    EXPECT_EQ(varint_read(p), v);
    EXPECT_EQ(p, buf.data() + buf.size());
  }
}

TEST(VarintCodec, ZigzagIsAnInvolutionOnBoundaries) {
  const std::int64_t probes[] = {0, 1, -1, 63, -64,
                                 std::numeric_limits<std::int64_t>::max(),
                                 std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t v : probes) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
  // Small magnitudes must stay small after mapping (that's the point).
  EXPECT_LE(zigzag_encode(-3), 8u);
  EXPECT_LE(zigzag_encode(3), 8u);
}

TEST(DeltaCodec, AscendingSequences) {
  Rng rng(100);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint64_t> values;
    std::uint64_t cur = rng.index(1000);
    const std::size_t n = rng.index(64);
    for (std::size_t i = 0; i < n; ++i) {
      cur += rng.index(5000);
      values.push_back(cur);
    }
    const auto bytes = delta_bytes(values);
    EXPECT_EQ(bytes.size(), delta_encoded_size(values.data(), values.size()));
    EXPECT_EQ(delta_back(bytes, values.size()), values);
  }
}

TEST(DeltaCodec, NonAscendingAndDuplicateAdjacent) {
  // The codec is mod-2^64 arithmetic, so it must be lossless for ARBITRARY
  // sequences — descending runs, repeats, zig-zags.
  Rng rng(101);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint64_t> values;
    const std::size_t n = rng.index(64);
    for (std::size_t i = 0; i < n; ++i) {
      switch (rng.index(3)) {
        case 0:
          values.push_back(rng.next_u64());
          break;
        case 1:  // duplicate-adjacent
          values.push_back(values.empty() ? 7 : values.back());
          break;
        case 2:  // strictly below the previous value
          values.push_back(values.empty() ? 0 : values.back() - rng.index(100) - 1);
          break;
      }
    }
    EXPECT_EQ(delta_back(delta_bytes(values), values.size()), values);
  }
}

TEST(DeltaCodec, BoundaryValues) {
  const std::vector<std::uint64_t> values = {
      std::numeric_limits<std::uint64_t>::max(),
      0,
      std::numeric_limits<std::uint64_t>::max(),
      1ull << 63,
      (1ull << 63) - 1,
      0,
      0};
  EXPECT_EQ(delta_back(delta_bytes(values), values.size()), values);
}

TEST(DeltaCodec, EmptySequence) {
  const std::vector<std::uint64_t> empty;
  EXPECT_EQ(delta_encoded_size(empty.data(), 0), 0u);
  EXPECT_TRUE(delta_bytes(empty).empty());
}

// ---- CompactProfile round trips -------------------------------------------

Profile random_profile(Rng& rng, std::size_t entries, ItemId universe,
                       bool binary_scores) {
  Profile p;
  for (std::size_t i = 0; i < entries; ++i) {
    const double score = binary_scores ? (rng.bernoulli(0.5) ? 1.0 : 0.0)
                                       : rng.uniform();
    p.set(rng.index(universe) + 1, static_cast<Cycle>(rng.index(50)), score);
  }
  return p;
}

// What the wire decoder does with a received snapshot: the sender's
// record bytes through the content table.
ProfileHandle intern(const Profile& profile) {
  const ProfileHandle sent = CompactProfile::encode(profile);
  return SnapshotArena::instance().intern_image(sent->image());
}

void expect_bit_identical(const Profile& original, const Profile& decoded) {
  ASSERT_EQ(decoded, original);
  EXPECT_EQ(decoded.version(), original.version());
  EXPECT_EQ(decoded.liked_count(), original.liked_count());
  EXPECT_EQ(decoded.norm(), original.norm());  // bit-equal, not approximate
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(decoded.entry(i).id, original.entry(i).id);
    EXPECT_EQ(decoded.entry(i).timestamp, original.entry(i).timestamp);
    EXPECT_EQ(decoded.entry(i).score, original.entry(i).score);
  }
}

TEST(CompactProfile, RoundTripIsBitIdenticalToCopy) {
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const bool binary = rng.bernoulli(0.5);
    const Profile p = random_profile(rng, rng.index(60), 200, binary);
    const auto compact = CompactProfile::encode(p);
    Profile decoded;
    compact->decode_into(decoded);
    expect_bit_identical(p, decoded);
    // Header-only reads agree without decoding.
    EXPECT_EQ(compact->size(), p.size());
    EXPECT_EQ(compact->version(), p.version());
    EXPECT_EQ(compact->liked_count(), p.liked_count());
    EXPECT_EQ(compact->norm(), p.norm());
    const auto ts = p.timestamps();
    EXPECT_EQ(compact->oldest_timestamp(),
              p.empty() ? CompactProfile::kNoOldest : *std::min_element(ts.begin(), ts.end()));
  }
}

TEST(CompactProfile, BinaryScoresPackToBitmask) {
  // All-binary scores encode as one bit each; real-valued scores fall back
  // to raw 8-byte doubles. The binary form must be ~8x smaller on scores.
  Rng rng(8);
  Profile binary, real;
  for (int i = 1; i <= 64; ++i) {
    binary.set(i, 0, i % 2 == 0 ? 1.0 : 0.0);
    real.set(i, 0, 0.25 + i * 1e-3);
  }
  const auto cb = CompactProfile::encode(binary);
  const auto cr = CompactProfile::encode(real);
  EXPECT_LT(cb->encoded_bytes() + 64 * 7, cr->encoded_bytes());
  Profile db, dr;
  cb->decode_into(db);
  cr->decode_into(dr);
  expect_bit_identical(binary, db);
  expect_bit_identical(real, dr);
}

TEST(CompactProfile, NonFiniteAndNegativeScoresSurvive) {
  Profile p;
  p.set(1, 0, -0.0);
  p.set(2, 0, std::numeric_limits<double>::infinity());
  p.set(3, 0, std::numeric_limits<double>::denorm_min());
  Profile decoded;
  CompactProfile::encode(p)->decode_into(decoded);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded.entry(i).score),
              std::bit_cast<std::uint64_t>(p.entry(i).score));
  }
}

TEST(CompactProfile, LayoutIsScoresThenIdsThenTimestamps) {
  // Id gaps of 64 and more and wide timestamps take multi-byte varints, so
  // the sections are found by their offsets, not by fixed widths.
  for (const bool binary : {true, false}) {
    Profile p;
    for (std::size_t i = 0; i < 21; ++i) {
      p.set(1 + 97 * i + (i % 4) * 5000, static_cast<Cycle>(i * 300) - 2000,
            binary ? static_cast<double>(i % 2) : 0.5 + static_cast<double>(i));
    }
    const ProfileHandle h = CompactProfile::encode(p);
    const CompactProfile& c = *h.record();
    EXPECT_EQ(c.binary_scores(), binary);
    const std::size_t score_bytes = binary ? (p.size() + 7) / 8 : p.size() * sizeof(double);
    ASSERT_EQ(c.id_deltas(), c.score_block() + score_bytes);
    for (std::size_t i = 0; i < p.size(); ++i) {
      double score = 0.0;
      if (binary) {
        score = (c.score_block()[i / 8] >> (i % 8)) & 1u ? 1.0 : 0.0;
      } else {
        std::memcpy(&score, c.score_block() + i * sizeof(double), sizeof(double));
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(score),
                std::bit_cast<std::uint64_t>(p.scores()[i]));
    }
    const std::uint8_t* at = c.id_deltas();
    std::vector<std::uint64_t> ids(p.size());
    delta_decode(at, ids.data(), ids.size());
    EXPECT_TRUE(std::equal(ids.begin(), ids.end(), p.ids().begin()));
    std::vector<std::uint64_t> stamps(p.size());
    delta_decode(at, stamps.data(), stamps.size());
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_EQ(static_cast<Cycle>(static_cast<std::int64_t>(stamps[i])), p.timestamps()[i]);
    }
    EXPECT_EQ(at, c.score_block() + c.encoded_bytes());  // nothing after the timestamps
    expect_bit_identical(p, h.decode());
  }
}

TEST(CompactProfile, NegativeTimestampsSurvive) {
  Profile p;
  p.set(5, -3, 1.0);
  p.set(9, 40, 0.0);
  Profile decoded;
  CompactProfile::encode(p)->decode_into(decoded);
  expect_bit_identical(p, decoded);
}

// ---- ProfileHandle ---------------------------------------------------------

TEST(ProfileHandle, NullVersusEmptyAreDistinct) {
  const ProfileHandle null_handle;
  EXPECT_TRUE(null_handle == nullptr);
  EXPECT_FALSE(static_cast<bool>(null_handle));
  const ProfileHandle& empty = empty_profile_handle();
  EXPECT_FALSE(empty == nullptr);
  EXPECT_TRUE(static_cast<bool>(empty));
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.version(), 0u);
  EXPECT_TRUE(empty.decode().empty());
}

TEST(ProfileHandle, HandleIsFourBytesWide) {
  // Records live in slab chunks addressed by a 32-bit arena index, so a
  // handle is a u32 (PR 7's pointer handle was 8 bytes; a shared_ptr 16).
  EXPECT_EQ(sizeof(ProfileHandle), 4u);
}

TEST(ProfileHandle, DecodedCopiesHeldAtOnceAreAllExact) {
  // A snapshot decodes bit-identically, and again on a second decode.
  Rng rng(55);
  const Profile p = random_profile(rng, 12, 80, false);
  const ProfileHandle h = ProfileHandle::snapshot(p);
  expect_bit_identical(p, h.decode());
  expect_bit_identical(p, h.decode());
  // Decoded copies are values: any number of them, of any generations and
  // of the same one twice, stay exact while held together.
  std::vector<Profile> originals;
  std::vector<ProfileHandle> handles;
  for (int i = 0; i < 7; ++i) {
    originals.push_back(random_profile(rng, 12, 80, false));
    handles.push_back(ProfileHandle::snapshot(originals.back()));
  }
  for (int round = 0; round < 30; ++round) {
    const std::size_t a = rng.index(handles.size());
    const std::size_t b = rng.index(handles.size());
    const Profile first = handles[a].decode();
    const Profile second = handles[b].decode();
    expect_bit_identical(originals[a], first);
    expect_bit_identical(originals[b], second);
  }
}

TEST(ProfileHandle, SnapshotIsImmutableUnderSourceMutation) {
  Profile p;
  p.set(1, 0, 1.0);
  const ProfileHandle h = ProfileHandle::snapshot(p);
  const Profile before = p;
  p.set(2, 0, 1.0);
  p.set(3, 5, 0.0);
  expect_bit_identical(before, h.decode());
}

// ---- SnapshotArena --------------------------------------------------------

TEST(SnapshotArena, SnapshotFreesWithItsLastHandle) {
  // A snapshot is a detached record: its slab slot returns to the pool the
  // moment its last holder (handle or stamp record) drops, with no table
  // keeping it alive until a sweep.
  Profile p;
  p.set(1, 0, 1.0);
  p.set(7, 3, 0.0);
  const std::size_t before = SnapshotArena::instance().stats().blobs.live;
  {
    const ProfileHandle h = ProfileHandle::snapshot(p);
    const ProfileHandle copy = h;
    const DescriptorRef stamp = DescriptorRef::make(4, copy);
    EXPECT_EQ(SnapshotArena::instance().stats().blobs.live, before + 1);
    EXPECT_EQ(h.use_count(), 3);  // two handles and the stamp record
  }
  EXPECT_EQ(SnapshotArena::instance().stats().blobs.live, before);
}

TEST(SnapshotArena, ThreadedSweepRacesInternCopyDrop) {
  // The hostile schedule for the intrusive refcount: worker threads churn
  // content-interned handles (intern, copy, drop — each drop may leave the
  // table's reference as the last one) while a sweeper thread continuously
  // purges. TSan runs this in CI; single-threaded it still pins the
  // invariant that a record can never be reclaimed while an outside handle
  // holds it.
  constexpr int kThreads = 4;
  constexpr int kProfiles = 8;
  constexpr int kRounds = 300;
  std::vector<Profile> profiles;
  Rng seed_rng(78);
  for (int i = 0; i < kProfiles; ++i) {
    profiles.push_back(random_profile(seed_rng, 10, 64, false));
    (void)profiles.back().norm();  // warm the lazy norm before sharing
  }

  auto& arena = SnapshotArena::instance();
  arena.purge_dead();
  const std::size_t entries_before = arena.stats().entries;
  std::atomic<bool> stop{false};
  std::thread sweeper([&] {
    while (!stop.load(std::memory_order_relaxed)) arena.purge_dead();
  });

  std::vector<std::thread> workers;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(2000 + t);
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t k = rng.index(kProfiles);
        ProfileHandle h = intern(profiles[k]);
        ProfileHandle copy = h;        // retain
        ProfileHandle moved = std::move(h);  // steal
        h = copy;                      // re-retain through assignment
        // A sweep may have dropped the table entry between our intern and
        // now; the record we hold must stay valid and intact regardless.
        if (!(copy.decode() == profiles[k])) ++failures[t];
        if (moved.record() != copy.record()) ++failures[t];
      }  // all three handles drop here — possibly the last references
    });
  }
  for (std::thread& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  sweeper.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
  // No handle survives the workers, so a final sweep leaves the table as
  // it found it.
  arena.purge_dead();
  EXPECT_EQ(arena.stats().entries, entries_before);
}

TEST(SnapshotArena, ResidentBytesTracksEncodedPayload) {
  Profile small, large;
  small.set(1, 0, 1.0);
  for (int i = 1; i <= 300; ++i) large.set(i * 7, i, 0.5 + i * 1e-4);
  const auto cs = CompactProfile::encode(small);
  const auto cl = CompactProfile::encode(large);
  EXPECT_GE(cs->resident_bytes(), sizeof(CompactProfile));
  EXPECT_GT(cl->resident_bytes(), cl->encoded_bytes());
  EXPECT_GT(cl->encoded_bytes(), cs->encoded_bytes());
}

TEST(SnapshotArena, StatsCountTheRecordsHeapSpill) {
  // A live record costs its slab slot plus its spilled payload; the arena
  // stats (and the engine's arena_bytes gauge built on them) count both.
  Profile p;
  for (int i = 1; i <= 100; ++i) p.set(i * 11, i, 0.25 + i * 1e-3);
  const auto live_cost = [] {
    const SnapshotArena::Stats s = SnapshotArena::instance().stats();
    return s.blobs.live * sizeof(CompactProfile) + s.spill_bytes;
  };
  const std::size_t before = live_cost();
  ProfileHandle h = CompactProfile::encode(p);
  EXPECT_GT(h->spill_bytes(), 0u);
  EXPECT_EQ(live_cost() - before, h->resident_bytes());
  h = ProfileHandle();
  EXPECT_EQ(live_cost(), before);
}

TEST(SnapshotArena, FreedSlotsAreRecycled) {
  // Encode-drop in a loop: the blob pool must hand back freed indices
  // instead of growing unboundedly (the detached records never touch the
  // content table, so their lifetime is exactly the handle's).
  Profile p;
  p.set(1, 0, 1.0);
  const auto before = SnapshotArena::instance().stats();
  for (int i = 0; i < 3 * 4096; ++i) {
    const ProfileHandle h = CompactProfile::encode(p);
    EXPECT_TRUE(static_cast<bool>(h));
  }
  const auto after = SnapshotArena::instance().stats();
  // 12k dead records cycled through; live count and slab storage must not
  // have grown by more than one warm chunk's worth.
  EXPECT_LE(after.blobs.live, before.blobs.live + 1);
  EXPECT_LE(after.blobs.chunks, before.blobs.chunks + 1);
}

TEST(SnapshotArena, CompactionRetiresEmptyChunksKeepsLiveAddressable) {
  // Fill several chunks, drop most records, keep a sparse survivor set.
  // Chunk retirement (the compaction step) must free the emptied slabs
  // while every surviving index still dereferences to intact contents.
  Rng rng(91);
  constexpr int kRecords = 3 * 4096;  // ~3 chunks of detached blobs
  std::vector<Profile> originals;
  std::vector<ProfileHandle> survivors;
  {
    std::vector<ProfileHandle> all;
    all.reserve(kRecords);
    for (int i = 0; i < kRecords; ++i) {
      Profile p;
      p.set(static_cast<ItemId>(i % 97 + 1), static_cast<Cycle>(i % 13), 1.0);
      all.push_back(CompactProfile::encode(p));
      // Survivors cluster in the FIRST chunk's index range, so the later
      // chunks die whole and must actually be retired.
      if (i < 2048 && i % 256 == 0) {
        originals.push_back(p);
        survivors.push_back(all.back());
      }
    }
    // `all` drops here: every record except the survivors dies.
  }
  const auto stats = SnapshotArena::instance().stats();
  EXPECT_GT(stats.blobs.retired, 0u);  // at least one slab was compacted away
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    Profile decoded;
    survivors[i]->decode_into(decoded);
    expect_bit_identical(originals[i], decoded);
  }
}

TEST(SnapshotArena, ContentInternDedupesAcrossDistinctVersions) {
  // The wire codec re-interns decoded snapshots BY CONTENT: two local
  // profiles with identical contents but different process-local versions
  // must collapse onto one arena record.
  Profile a, b;
  a.set(3, 1, 1.0);
  a.set(9, 2, 0.0);
  b.set(3, 1, 1.0);
  b.set(9, 2, 0.0);
  ASSERT_NE(a.version(), b.version());
  auto& arena = SnapshotArena::instance();
  const ProfileHandle ha = intern(a);
  const ProfileHandle hb = intern(b);
  EXPECT_EQ(ha.record(), hb.record());
  // The shared record reproduces the shared contents (version keeps the
  // first arrival's stamp — versions only key caches, never behavior).
  Profile decoded;
  ha->decode_into(decoded);
  ASSERT_EQ(decoded, a);
  EXPECT_EQ(decoded.norm(), a.norm());
  EXPECT_EQ(decoded.liked_count(), a.liked_count());
  // Different contents stay distinct.
  Profile c;
  c.set(3, 1, 1.0);
  const ProfileHandle hc = intern(c);
  EXPECT_NE(hc.record(), ha.record());
}

TEST(SnapshotArena, ThreadedContentInternAndSweepConverge) {
  // TSan companion for the content table: many threads decode "the same
  // wire bytes" while a sweeper purges — all arrivals of one content must
  // observe intact records, and dead contents must eventually be swept.
  constexpr int kThreads = 4;
  constexpr int kProfiles = 8;
  constexpr int kRounds = 200;
  std::vector<Profile> profiles;
  Rng seed_rng(79);
  for (int i = 0; i < kProfiles; ++i) {
    profiles.push_back(random_profile(seed_rng, 10, 64, false));
    // Warm the lazily cached norm before the profile is shared across
    // threads, as production sharing sites do: norm() writes its cache on
    // first call, and interning reads it.
    (void)profiles.back().norm();
  }
  auto& arena = SnapshotArena::instance();
  arena.purge_dead();
  const std::size_t entries_before = arena.stats().entries;
  std::atomic<bool> stop{false};
  std::thread sweeper([&] {
    while (!stop.load(std::memory_order_relaxed)) arena.purge_dead();
  });
  std::vector<std::thread> workers;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(3000 + t);
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t k = rng.index(kProfiles);
        const ProfileHandle h = intern(profiles[k]);
        if (!(h.decode() == profiles[k])) ++failures[t];
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  sweeper.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
  arena.purge_dead();
  EXPECT_EQ(arena.stats().entries, entries_before);
}

// ---- DescriptorRef --------------------------------------------------------

TEST(DescriptorRef, NullAndInlineEncodingsCostNoArenaRecord) {
  const auto before = SnapshotArena::instance().stats();
  // Null: default-constructed ≡ (kNoCycle, no profile).
  const DescriptorRef null_ref;
  EXPECT_TRUE(null_ref.is_null());
  EXPECT_EQ(null_ref.timestamp(), kNoCycle);
  EXPECT_FALSE(null_ref.has_profile());
  // Profile-less timestamps store inline — bootstrap's t=-1 in particular.
  for (const Cycle t : {Cycle{-1}, Cycle{0}, Cycle{12345}, Cycle{-40000},
                        Cycle{(1 << 30) - 1}, Cycle{-(1 << 30)}}) {
    const DescriptorRef r = DescriptorRef::make(t, ProfileHandle());
    EXPECT_FALSE(r.is_null());
    EXPECT_EQ(r.timestamp(), t);
    EXPECT_FALSE(r.has_profile());
    EXPECT_EQ(r.profile_size(), 0u);
    EXPECT_TRUE(r.profile() == nullptr);
  }
  const auto after = SnapshotArena::instance().stats();
  EXPECT_EQ(after.stamps.live, before.stamps.live);
}

TEST(DescriptorRef, StampRecordsShareTimestampAndBlobByRefcount) {
  Profile p;
  p.set(4, 2, 1.0);
  const ProfileHandle snapshot = ProfileHandle::snapshot(p);
  const auto before = SnapshotArena::instance().stats();
  {
    const DescriptorRef a = DescriptorRef::make(17, snapshot);
    const DescriptorRef b = a;  // copy: shares the record, bumps refs
    DescriptorRef c;
    c = b;
    EXPECT_EQ(a.timestamp(), 17);
    EXPECT_EQ(c.timestamp(), 17);
    EXPECT_TRUE(c.has_profile());
    EXPECT_EQ(c.profile_version(), p.version());
    EXPECT_EQ(c.profile_size(), p.size());
    expect_bit_identical(p, c.decode());
    const auto during = SnapshotArena::instance().stats();
    EXPECT_EQ(during.stamps.live, before.stamps.live + 1);  // ONE record for 3 copies
  }
  // Last copy dropped: the stamp record frees immediately (no epoch wait).
  const auto after = SnapshotArena::instance().stats();
  EXPECT_EQ(after.stamps.live, before.stamps.live);
  // The blob outlives the stamps through our snapshot handle.
  expect_bit_identical(p, snapshot.decode());
}

TEST(DescriptorRef, SnapshotBorrowsTheBlobRecord) {
  Profile p;
  p.set(4, 2, 1.0);
  p.set(90, 3, 0.0);
  const ProfileHandle snapshot = ProfileHandle::snapshot(p);
  const DescriptorRef ref = DescriptorRef::make(17, snapshot);
  EXPECT_EQ(ref.snapshot(), snapshot.record());
  EXPECT_EQ(ref.profile_version(), p.version());
  // Bare addresses (inline and arena-stamped timestamps) and null refs
  // carry no record and decode to the empty profile.
  for (const DescriptorRef& bare : {DescriptorRef::make(5, ProfileHandle()),
                                    DescriptorRef::make(kNoCycle + 1, ProfileHandle()),
                                    DescriptorRef()}) {
    EXPECT_EQ(bare.snapshot(), nullptr);
    EXPECT_EQ(bare.profile_version(), 0u);
    EXPECT_TRUE(bare.decode().empty());
  }
}

TEST(DescriptorRef, MoveTransfersOwnershipWithoutTouchingRefcount) {
  Profile p;
  p.set(1, 0, 1.0);
  DescriptorRef a = DescriptorRef::make(5, ProfileHandle::snapshot(p));
  const auto live_before = SnapshotArena::instance().stats().stamps.live;
  DescriptorRef b = std::move(a);
  EXPECT_TRUE(a.is_null());
  EXPECT_EQ(b.timestamp(), 5);
  EXPECT_EQ(SnapshotArena::instance().stats().stamps.live, live_before);
}

}  // namespace
}  // namespace whatsup
