// Item profiles on the BEEP news path (profile/compact.hpp): every news
// payload carries its item profile as a detached immutable record, and a
// hop that changes the profile writes a new one. The record path must give
// exactly what a mutable Profile gives (the oracle), never change a copy
// already in flight, orient BEEP exactly as the decoded profile would, and
// leave the wire format untouched. The multi-thread end-to-end case also
// runs in the TSan CI job (ci.yml).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "analysis/runner.hpp"
#include "common/rng.hpp"
#include "dataset/survey.hpp"
#include "metrics/tracker.hpp"
#include "net/message.hpp"
#include "net/wire.hpp"
#include "profile/compact.hpp"
#include "profile/similarity.hpp"
#include "sim/engine.hpp"
#include "whatsup/node.hpp"
#include "whatsup_test_utils.hpp"

namespace whatsup {
namespace {

Profile liked(std::initializer_list<ItemId> ids) {
  Profile p;
  for (ItemId id : ids) p.set(id, 5, 1.0);
  return p;
}

// A binary user profile of up to `max_entries` entries (possibly none)
// stamped within `spread` cycles before `now`; ids from a small universe so
// folds overlap the item profile.
Profile random_user(Rng& rng, Cycle now, std::size_t max_entries, Cycle spread) {
  Profile p;
  const std::size_t n = rng.index(max_entries + 1);
  for (std::size_t i = 0; i < n; ++i) {
    p.set(rng.index(40) + 1, now - static_cast<Cycle>(rng.index(spread + 1)),
          rng.bernoulli(0.6) ? 1.0 : 0.0);
  }
  return p;
}

void expect_matches_oracle(const ProfileHandle& record, const Profile& oracle) {
  ASSERT_EQ(record == nullptr, oracle.empty());  // empty is the null handle
  const Profile decoded = record.decode();
  ASSERT_EQ(decoded, oracle);
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(decoded.ids()[i], oracle.ids()[i]);
    EXPECT_EQ(decoded.timestamps()[i], oracle.timestamps()[i]);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded.scores()[i]),
              std::bit_cast<std::uint64_t>(oracle.scores()[i]));
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded.norm()),
            std::bit_cast<std::uint64_t>(oracle.norm()));
  EXPECT_EQ(decoded.liked_count(), oracle.liked_count());
  EXPECT_EQ(record.size(), oracle.size());
  if (record != nullptr) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(record->norm()),
              std::bit_cast<std::uint64_t>(oracle.norm()));
    EXPECT_EQ(record->liked_count(), oracle.liked_count());
    const auto ts = oracle.timestamps();
    EXPECT_EQ(record->oldest_timestamp(), *std::min_element(ts.begin(), ts.end()));
  }
}

// Random publish → like/dislike hop chains: the record path against the
// mutable Profile the news path held before (Alg. 1 applied entry by
// entry), bit for bit, for the item profile and the user profile alike.
TEST(ItemRecord, HopSequencesMatchTheProfileOracle) {
  Rng rng(41);
  bool saw_large = false, saw_empty_user = false, saw_purge_to_empty = false,
       saw_kept_slot = false;
  for (int trial = 0; trial < 300; ++trial) {
    const Cycle window = 1 + static_cast<Cycle>(rng.index(12));
    Cycle now = 0;
    Profile oracle = random_user(rng, now, 16, window);  // published as is
    ProfileHandle record = item_record(oracle);
    expect_matches_oracle(record, oracle);
    for (int hop = 0; hop < 10; ++hop) {
      now += static_cast<Cycle>(rng.index(4));
      const Cycle cutoff = now - window;
      const ItemId item = 1000 + static_cast<ItemId>(hop);
      const Cycle created = now - static_cast<Cycle>(rng.index(3));
      const ArenaIndex slot = record.slot();
      const bool drops = oracle.has_entries_older_than(cutoff);
      Profile user = random_user(rng, now, 16, window);
      Profile user_oracle = user;
      if (rng.bernoulli(0.5)) {
        saw_empty_user |= user.empty();
        oracle.fold_profile(user_oracle);
        user_oracle.set(item, created, 1.0);
        oracle.purge_older_than(cutoff);
        like_item(record, user, item, created, cutoff);
        if (user_oracle.size() == 1 && !drops) {  // nothing folded or purged
          EXPECT_EQ(record.slot(), slot);
          saw_kept_slot |= slot != kNullArenaIndex;
        }
      } else {
        user_oracle.set(item, created, 0.0);
        oracle.purge_older_than(cutoff);
        dislike_item(record, user, item, created, cutoff);
        if (!drops) {
          EXPECT_EQ(record.slot(), slot);  // no-op purge: the same record
          saw_kept_slot |= slot != kNullArenaIndex;
        }
      }
      EXPECT_EQ(user, user_oracle);
      EXPECT_EQ(user.liked_count(), user_oracle.liked_count());
      saw_large |= oracle.size() > Profile::kInlineEntries;
      saw_purge_to_empty |= drops && oracle.empty();
      expect_matches_oracle(record, oracle);
    }
  }
  EXPECT_TRUE(saw_large);
  EXPECT_TRUE(saw_empty_user);
  EXPECT_TRUE(saw_purge_to_empty);
  EXPECT_TRUE(saw_kept_slot);
}

TEST(ItemRecord, FanOutCopiesShareOneRecord) {
  net::NewsPayload news;
  news.item_profile = item_record(liked({1, 2, 3}));
  std::vector<net::NewsPayload> fanout(10, news);  // fLIKE copies
  EXPECT_EQ(news.item_profile.use_count(), 11);
  for (const net::NewsPayload& copy : fanout) {
    EXPECT_EQ(copy.item_profile.slot(), news.item_profile.slot());
  }
}

TEST(ItemRecord, HopsLeaveOtherHoldersIntact) {
  ProfileHandle sender = item_record(liked({1, 2}));
  const ProfileHandle in_flight = sender;  // e.g. a queued message's copy
  Profile user = liked({2, 3});
  like_item(sender, user, 4, 5, /*cutoff=*/0);
  EXPECT_NE(sender.slot(), in_flight.slot());
  EXPECT_EQ(in_flight.decode(), liked({1, 2}));
  EXPECT_DOUBLE_EQ(*sender.decode().score(2), 1.0);  // (1+1)/2
  EXPECT_TRUE(sender.decode().contains(3));
  EXPECT_FALSE(sender.decode().contains(4));  // the like is the user's own

  const ProfileHandle before_purge = sender;
  dislike_item(sender, user, 5, 5, /*cutoff=*/10);  // drops everything
  EXPECT_TRUE(sender == nullptr);
  EXPECT_EQ(before_purge.size(), 3u);
}

// End-to-end: a payload committed into the engine's mailbox ring must be
// isolated from the sender's later hops on its own payload object.
TEST(ItemRecord, InFlightMailboxCopyIsIsolatedFromSenderFold) {
  sim::Engine::Config config;
  sim::Engine engine(config);
  const NodeId sink_id = engine.add_agent(std::make_unique<testing::CaptureAgent>());
  auto* sink = static_cast<testing::CaptureAgent*>(&engine.agent(sink_id));

  net::NewsPayload news;
  news.id = 77;
  news.index = 0;
  news.item_profile = item_record(liked({1, 2}));

  net::Message m;
  m.from = sink_id;
  m.to = sink_id;
  m.type = net::MsgType::kNews;
  m.payload = news;  // the mailbox now holds a sharing copy
  engine.send(std::move(m));

  Profile user = liked({3, 4});
  like_item(news.item_profile, user, 9, 5, /*cutoff=*/0);
  dislike_item(news.item_profile, user, 10, 5, /*cutoff=*/100);

  engine.run_cycles(2);  // unit network latency: due at cycle 1
  ASSERT_EQ(sink->news.size(), 1u);
  const Profile delivered = sink->news[0].item_profile.decode();
  EXPECT_EQ(delivered, liked({1, 2}));
}

// BEEP orients by the payload's record: preparing the scorer from it must
// score every candidate exactly as preparing from the decoded profile.
TEST(ItemRecord, ScorerPreparedFromRecordEqualsDecodedForEveryMetric) {
  Rng rng(43);
  std::vector<ProfileHandle> candidates{ProfileHandle()};
  for (int i = 0; i < 24; ++i) {
    candidates.push_back(CompactProfile::encode(random_user(rng, 30, 30, 30)));
  }
  std::vector<ProfileHandle> subjects{ProfileHandle()};
  for (int i = 0; i < 24; ++i) {
    ProfileHandle item = item_record(random_user(rng, 30, 30, 30));
    Profile user = random_user(rng, 30, 30, 30);
    like_item(item, user, 999, 30, /*cutoff=*/0);  // averaged: real scores
    subjects.push_back(item);
  }
  for (const Metric metric : {Metric::kWup, Metric::kCosine, Metric::kJaccard,
                              Metric::kOverlap, Metric::kPearson}) {
    for (const ProfileHandle& subject : subjects) {
      SimilarityScorer from_record, from_decoded;
      from_record.prepare(metric, subject.record());
      from_decoded.prepare(metric, subject.decode());
      for (const ProfileHandle& c : candidates) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(from_record.score(c.record())),
                  std::bit_cast<std::uint64_t>(from_decoded.score(c.record())))
            << to_string(metric);
      }
    }
  }
}

// A fixed news frame, byte for byte: the header fields, then the item
// record's body — count, flags, byte length and the record's own bytes
// (raw doubles, zigzag id deltas, zigzag timestamp deltas).
TEST(ItemRecord, NewsFrameBytesPinned) {
  Profile p;
  p.set(3, 17, 0.75);
  p.set(0x1234567890ULL, 20, 1.0);
  p.set(0x1234567899ULL, 18, 0.375);
  p.set(0xfedcba9876543210ULL, 21, 0.0);
  net::Message m;
  m.from = 4;
  m.to = 9;
  m.sent_at = 22;
  m.seq = 3;
  m.type = net::MsgType::kNews;
  net::NewsPayload n;
  n.id = 0xabcdef0123ULL;
  n.index = 41;
  n.created = 16;
  n.origin = 7;
  n.dislikes = 2;
  n.hops = 5;
  n.via_dislike = true;
  n.item_profile = item_record(p);
  m.payload = n;
  net::SnapshotSendTable tx(net::snapshot_table_slots(0));
  std::vector<std::uint8_t> bytes;
  net::encode_message(bytes, m, tx);
  const std::vector<std::uint8_t> expected{
      // from, to, sent_at, seq, type, payload index, id, index, created,
      // origin, dislikes, hops, via_dislike
      0x04, 0x09, 0x2c, 0x03, 0x04, 0x01, 0xa3, 0x82, 0xbc, 0xef, 0xbc, 0x15,
      0x29, 0x20, 0x07, 0x04, 0x0a, 0x01,
      // full item tag, count 4, flags 0 (real scores), 53 record bytes
      0x01, 0x04, 0x00, 0x35,
      // scores 0.75, 1.0, 0.375, 0.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe8, 0x3f,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd8, 0x3f,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // id deltas
      0x06, 0x9a, 0xe2, 0xb3, 0xc5, 0xc6, 0x04, 0x12, 0x91, 0x9a, 0x92, 0xe0,
      0xb7, 0xde, 0xa2, 0xa3, 0x02,
      // timestamp deltas 17, +3, -2, +3
      0x22, 0x06, 0x03, 0x06};
  EXPECT_EQ(bytes, expected);

  net::SnapshotRecvTable rx(net::snapshot_table_slots(0));
  net::WireReader r(bytes.data(), bytes.size());
  net::Message out;
  ASSERT_TRUE(net::decode_message(r, out, rx));
  EXPECT_EQ(out.news().item_profile.decode(), p);
  rx.end_batch();  // the link holds the batch's full item ships until here
  EXPECT_EQ(out.news().item_profile.use_count(), 1);  // a detached record
}

// Full WhatsUp dissemination with several shards and worker threads: the
// trajectory must not depend on the thread count even though concurrent
// receivers fold the same shared record into records of their own. Runs
// at 1/4/WHATSUP_TEST_THREADS; under TSan this doubles as the race check
// for shared records crossing shard lines.
TEST(ItemRecord, TrajectoryIdenticalAcrossThreads) {
  const auto run = [](unsigned threads) {
    Rng rng(99);
    data::SurveyConfig sc;
    sc.base_users = 40;
    sc.base_items = 50;
    sc.replication = 2;
    data::Workload workload = data::make_survey(sc, rng);
    workload.schedule_publications(3, 15, rng);

    sim::Engine::Config ec;
    ec.seed = rng.next_u64();
    ec.threads = threads;
    ec.shard_nodes = 8;  // many shards: payload copies cross shard lines
    sim::Engine engine(ec);

    analysis::WorkloadOpinions opinions(workload);
    WhatsUpConfig wu;
    wu.params.f_like = 8;
    const std::size_t n = workload.num_users();
    std::vector<WhatsUpAgent*> agents;
    for (NodeId v = 0; v < n; ++v) {
      auto agent = std::make_unique<WhatsUpAgent>(v, wu, opinions);
      agents.push_back(agent.get());
      engine.add_agent(std::move(agent));
    }
    for (NodeId v = 0; v < n; ++v) {
      std::vector<net::Descriptor> seed_view;
      for (int i = 0; i < wu.params.rps_view_size; ++i) {
        NodeId peer = v;
        while (peer == v) peer = static_cast<NodeId>(rng.index(n));
        seed_view.push_back(net::Descriptor{peer, -1, nullptr});
      }
      agents[v]->bootstrap_rps(std::move(seed_view));
    }
    metrics::Tracker tracker(n, workload.num_items());
    tracker.attach(engine);
    for (Cycle c = 0; c < 25; ++c) {
      for (const data::NewsSpec& spec : workload.news) {
        if (spec.publish_at == c) {
          engine.publish(workload.news[spec.index].source, spec.index,
                         workload.news[spec.index].id);
        }
      }
      engine.run_cycle();
    }
    return tracker.digest();
  };

  const std::uint64_t base = run(1);
  EXPECT_EQ(base, run(4));
  if (const char* env = std::getenv("WHATSUP_TEST_THREADS"); env != nullptr) {
    const int extra = std::atoi(env);
    if (extra > 0) {
      EXPECT_EQ(base, run(static_cast<unsigned>(extra)));
    }
  }
}

}  // namespace
}  // namespace whatsup
