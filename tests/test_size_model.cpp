#include "net/size_model.hpp"

#include <gtest/gtest.h>

namespace whatsup::net {
namespace {

Profile profile_with(std::size_t entries) {
  Profile p;
  for (std::size_t i = 0; i < entries; ++i) p.set(i + 1, 0, 1.0);
  return p;
}

TEST(SizeModel, DescriptorGrowsWithProfile) {
  const SizeModel model;
  const Descriptor empty{1, 0, nullptr};
  EXPECT_EQ(model.descriptor_bytes(empty), model.descriptor_base);
  const Descriptor loaded = make_descriptor(1, 0, profile_with(10));
  EXPECT_EQ(model.descriptor_bytes(loaded),
            model.descriptor_base + 10 * model.profile_entry);
}

TEST(SizeModel, ViewMessageSumsDescriptors) {
  const SizeModel model;
  Message m;
  m.type = MsgType::kRpsRequest;
  ViewPayload payload;
  payload.sender = make_descriptor(0, 0, profile_with(3));
  payload.view.push_back(make_descriptor(1, 0, profile_with(2)));
  payload.view.push_back(Descriptor{2, 0, nullptr});
  m.payload = payload;
  const std::size_t expected = model.transport_header + model.app_header +
                               (model.descriptor_base + 3 * model.profile_entry) +
                               (model.descriptor_base + 2 * model.profile_entry) +
                               model.descriptor_base;
  EXPECT_EQ(model.bytes(m), expected);
}

TEST(SizeModel, NewsMessageCarriesItemProfile) {
  const SizeModel model;
  Message m;
  m.type = MsgType::kNews;
  NewsPayload news;
  news.item_profile = CompactProfile::encode(profile_with(7));
  m.payload = news;
  EXPECT_EQ(model.bytes(m), model.transport_header + model.app_header + model.news_base +
                                model.news_meta + 7 * model.item_profile_entry);
}

TEST(SizeModel, NewsHeavierThanEmptyGossip) {
  const SizeModel model;
  Message news;
  news.type = MsgType::kNews;
  news.payload = NewsPayload{};
  Message gossip;
  gossip.type = MsgType::kWupRequest;
  gossip.payload = ViewPayload{};
  EXPECT_GT(model.bytes(news), model.bytes(gossip));
}

TEST(Protocols, MessageTypeMapping) {
  EXPECT_EQ(protocol_of(MsgType::kRpsRequest), Protocol::kRps);
  EXPECT_EQ(protocol_of(MsgType::kRpsReply), Protocol::kRps);
  EXPECT_EQ(protocol_of(MsgType::kWupRequest), Protocol::kWup);
  EXPECT_EQ(protocol_of(MsgType::kWupReply), Protocol::kWup);
  EXPECT_EQ(protocol_of(MsgType::kNews), Protocol::kBeep);
  EXPECT_EQ(to_string(MsgType::kNews), "news");
  EXPECT_EQ(to_string(Protocol::kWup), "wup");
}

}  // namespace
}  // namespace whatsup::net
