// Interprocess-communication latencies — paper §6.7, Tables 11–13, 15.
//
// All benchmarks have the paper's canonical form: "pass a small message (a
// byte or so) back and forth between two processes.  The reported results
// are always the microseconds needed to do one round trip."
#ifndef LMBENCHPP_SRC_LAT_LAT_IPC_H_
#define LMBENCHPP_SRC_LAT_LAT_IPC_H_

#include "src/core/timing.h"

namespace lmb::lat {

struct IpcLatConfig {
  TimingPolicy policy = TimingPolicy::standard();
  // Message payload (paper: one 4-byte word).
  size_t message_bytes = 4;

  static IpcLatConfig quick() {
    IpcLatConfig c;
    c.policy = TimingPolicy::quick();
    return c;
  }
};

// Round trip over a pair of pipes (Table 11).  Identical to the two-process
// zero-footprint context-switch benchmark plus pipe overhead.
Measurement measure_pipe_latency(const IpcLatConfig& config = {});

// Round trip over an AF_UNIX socket pair (lmbench lat_unix).
Measurement measure_unix_latency(const IpcLatConfig& config = {});

// Round trip over loopback TCP with TCP_NODELAY (Table 12).
Measurement measure_tcp_latency(const IpcLatConfig& config = {});

// Round trip over loopback UDP (Table 13).
Measurement measure_udp_latency(const IpcLatConfig& config = {});

// TCP connection establishment: repeated connect()+close() against a
// loopback listener; "Twenty connects are completed and the fastest of them
// is used as the result" (Table 15, §6.7).
//
// The listener's backlog equals `connects`, so every connect completes
// into the accept queue even before the acceptor child first runs.  With a
// smaller backlog the first connect past it has its SYN dropped and waits
// out the kernel's 1 s initial retransmission timeout.  `connects` is
// capped at kMaxConnects, the default net.core.somaxconn before Linux 5.4:
// above the kernel's cap listen(2) silently truncates the backlog and that
// stall returns.
struct ConnectConfig {
  static constexpr int kMaxConnects = 128;
  int connects = 20;
};
Measurement measure_tcp_connect(const ConnectConfig& config = {});

}  // namespace lmb::lat

#endif  // LMBENCHPP_SRC_LAT_LAT_IPC_H_
