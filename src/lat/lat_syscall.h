// Operating-system entry cost — paper §6.3, Table 7.
//
// "We measure nontrivial entry into the system by repeatedly writing one
// word to /dev/null, a pseudo device driver that does nothing but discard
// the data.  This particular entry point was chosen because it has never
// been optimized in any system that we have measured."
//
// Extensions (present in lmbench's lat_syscall): getpid (the trivial entry),
// read from /dev/zero, stat, open+close, and select over N file descriptors.
#ifndef LMBENCHPP_SRC_LAT_LAT_SYSCALL_H_
#define LMBENCHPP_SRC_LAT_LAT_SYSCALL_H_

#include <string>

#include "src/core/timing.h"

namespace lmb::lat {

// One-word write to /dev/null (Table 7).
Measurement measure_null_write(const TimingPolicy& policy = TimingPolicy::standard());

// getpid via syscall(2) — bypasses any libc caching.
Measurement measure_getpid(const TimingPolicy& policy = TimingPolicy::standard());

// One-byte read from /dev/zero.
Measurement measure_null_read(const TimingPolicy& policy = TimingPolicy::standard());

// stat() of `path`.
Measurement measure_stat(const std::string& path, const TimingPolicy& policy = TimingPolicy::standard());

// open()+close() of `path`.
Measurement measure_open_close(const std::string& path,
                               const TimingPolicy& policy = TimingPolicy::standard());

// select(2) over `nfds` descriptors (pipes), zero timeout.
Measurement measure_select(int nfds, const TimingPolicy& policy = TimingPolicy::standard());

}  // namespace lmb::lat

#endif  // LMBENCHPP_SRC_LAT_LAT_SYSCALL_H_
