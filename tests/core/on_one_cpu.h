// Holding a test and every process it forks on one CPU.
#ifndef LMBENCHPP_TESTS_CORE_ON_ONE_CPU_H_
#define LMBENCHPP_TESTS_CORE_ON_ONE_CPU_H_

#include <sched.h>

#include "src/core/topology.h"

namespace lmb {

// Pins the calling thread, and so each child forked under it, to the CPU
// it runs on, and restores the old mask on destruction.  A two-party
// benchmark then measures one placement.  On a 4-vCPU KVM guest, a 16 KB
// pipe round trip with both ends on one CPU (8 us) cost less than a 4 B one
// across two (13 us), so an ordering test over unpinned runs can compare
// placements instead of message sizes.
class OnOneCpu {
 public:
  OnOneCpu() {
    CPU_ZERO(&saved_);
    pinned_ = sched_getaffinity(0, sizeof(saved_), &saved_) == 0 &&
              pin_current_thread(current_cpu());
  }
  ~OnOneCpu() {
    if (pinned_) {
      sched_setaffinity(0, sizeof(saved_), &saved_);
    }
  }
  OnOneCpu(const OnOneCpu&) = delete;
  OnOneCpu& operator=(const OnOneCpu&) = delete;

  bool pinned() const { return pinned_; }

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

}  // namespace lmb

#endif  // LMBENCHPP_TESTS_CORE_ON_ONE_CPU_H_
