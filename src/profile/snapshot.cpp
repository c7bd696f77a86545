#include "profile/snapshot.hpp"

namespace whatsup {

ProfileHandle ProfileSnapshotCache::get(const Profile& profile) {
  if (profile.version() == 0) return empty_profile_handle();
  if (handle_ == nullptr || version_ != profile.version()) {
    handle_ = ProfileHandle::snapshot(profile);
    version_ = profile.version();
  }
  return handle_;
}

DescriptorRef ProfileSnapshotCache::stamp(Cycle now, const Profile& profile) {
  if (stamp_.is_null() || stamp_cycle_ != now ||
      stamp_version_ != profile.version()) {
    stamp_ = DescriptorRef::make(now, get(profile));
    stamp_cycle_ = now;
    stamp_version_ = profile.version();
  }
  return stamp_;
}

}  // namespace whatsup
