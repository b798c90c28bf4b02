// Positive control for thread_safety_compile: the same guarded field
// as unguarded_access.cc, accessed correctly — shared side for reads,
// exclusive side for writes, through the instrumented scoped guards.
// Must compile cleanly under `clang -Werror=thread-safety`; if it
// doesn't, the negative test's failure proves nothing.
#include "common/sync.h"
#include "common/thread_annotations.h"

namespace colr {

struct WindowState {
  EpochLatch epoch_latch_;
  int newest_slot COLR_GUARDED_BY(epoch_latch_) = 0;
};

int ReadWithSharedLatch(WindowState& state) {
  ReaderLock lock(state.epoch_latch_, SyncSite::kEpochShared);
  return state.newest_slot;
}

void WriteWithExclusiveLatch(WindowState& state, int slot) {
  MutexLock lock(state.epoch_latch_, SyncSite::kEpochExclusive);
  state.newest_slot = slot;
}

}  // namespace colr
