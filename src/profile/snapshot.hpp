// Version-keyed snapshot cache — the memory half of the gossip hot path.
//
// Descriptors ship profiles as interned compact records behind a 4-byte
// `ProfileHandle` (profile/compact.hpp). The seed implementation deep-
// copied the sender's profile into a fresh snapshot for EVERY outgoing
// gossip message. That is redundant while the profile is unchanged, which
// `Profile::version()` detects exactly: equal versions imply equal
// contents (see profile.hpp). `ProfileSnapshotCache` re-interns a node's
// outgoing snapshot only when its profile version changed, skipping the
// intern-table lock on the (overwhelmingly common) unchanged path; all
// empty profiles share one static handle.
#pragma once

#include <cstdint>

#include "common/ids.hpp"
#include "profile/compact.hpp"

namespace whatsup {

class ProfileSnapshotCache {
 public:
  // Returns an interned snapshot with the same contents as `profile`,
  // reusing the previous handle while the version is unchanged.
  ProfileHandle get(const Profile& profile);

  // The (timestamp, snapshot) stamp record for a self-descriptor emitted
  // at `now`: reused while both the profile version and the cycle are
  // unchanged, so a node sending several gossip messages in one cycle
  // shares ONE arena record across all of them.
  DescriptorRef stamp(Cycle now, const Profile& profile);

 private:
  ProfileHandle handle_;
  std::uint64_t version_ = 0;
  DescriptorRef stamp_;
  Cycle stamp_cycle_ = kNoCycle;
  std::uint64_t stamp_version_ = ~std::uint64_t{0};
};

}  // namespace whatsup
