#include "net/size_model.hpp"

namespace whatsup::net {

std::size_t SizeModel::descriptor_bytes(const Descriptor& d) const {
  // Logical wire size: a real deployment serializes the full profile per
  // descriptor, so the charge reads the entry count off the compact record
  // header — storage compression never changes accounted bandwidth.
  return descriptor_base + profile_entry * d.profile_size();
}

std::size_t SizeModel::bytes(const Message& m) const {
  std::size_t size = transport_header + app_header;
  switch (m.type) {
    case MsgType::kRpsRequest:
    case MsgType::kRpsReply:
    case MsgType::kWupRequest:
    case MsgType::kWupReply:
    case MsgType::kRejoinRequest:
    case MsgType::kRejoinReply: {
      const ViewPayload& view = m.view();
      size += descriptor_bytes(view.sender);
      for (const Descriptor& d : view.view) size += descriptor_bytes(d);
      break;
    }
    case MsgType::kNews: {
      const NewsPayload& news = m.news();
      size += news_base + news_meta;
      // Charged at the LOGICAL size of the item profile: in-memory payload
      // copies share one record (its header holds the entry count), but a
      // real deployment serializes the full profile into every datagram,
      // so the Fig. 8b bandwidth split is unaffected by the sharing.
      size += item_profile_entry * news.item_profile.size();
      break;
    }
    case MsgType::kAck:
      size += ack_body;
      break;
  }
  return size;
}

}  // namespace whatsup::net
