// Version-keyed snapshot cache — the memory half of the gossip hot path.
//
// Descriptors ship profiles as compact records behind a 4-byte
// `ProfileHandle` (profile/compact.hpp). The seed implementation deep-
// copied the sender's profile into a fresh snapshot for EVERY outgoing
// gossip message. That is redundant while the profile is unchanged, which
// `Profile::version()` detects exactly: equal versions imply equal
// contents (see profile.hpp). Each node owns ONE `ProfileSnapshotCache`,
// shared by its RPS and WUP layers: it encodes the disclosed profile once
// per generation, and the record frees as soon as the last descriptor
// holding it drops. All empty profiles share one static handle.
#pragma once

#include <cstdint>

#include "common/ids.hpp"
#include "profile/compact.hpp"

namespace whatsup {

class ProfileSnapshotCache {
 public:
  // Returns a snapshot with the same contents as `profile`, reusing the
  // previous handle while the version is unchanged.
  ProfileHandle get(const Profile& profile);

  // The (timestamp, snapshot) stamp record for a self-descriptor emitted
  // at `now`: reused while both the profile version and the cycle are
  // unchanged, so every gossip message a node sends in one cycle, RPS and
  // WUP alike, shares ONE arena record.
  DescriptorRef stamp(Cycle now, const Profile& profile);

 private:
  ProfileHandle handle_;
  std::uint64_t version_ = 0;
  DescriptorRef stamp_;
  Cycle stamp_cycle_ = kNoCycle;
  std::uint64_t stamp_version_ = ~std::uint64_t{0};
};

}  // namespace whatsup
