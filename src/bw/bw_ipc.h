// Interprocess-communication bandwidth — paper Table 3.
//
// Pipe: 64 KB transfers through a pipe (§5.2: "in 64K transfers").
// Unix: lmbench's bw_unix over an AF_UNIX socket pair (same shape as pipe).
//       Both fork one writer child per measurement, which writes chunks
//       until it is stopped.  measure() times the parent reading `iters`
//       chunks and reports MB/s of one chunk over the minimum interval.
//       The timed side is the receiver, so "all data has been moved before
//       the timing is finished" (§5.2) holds without an acknowledgement.
// TCP:  50 MB moved through loopback in 1 MB transfers with 1 MB socket
//       buffers ("setting the transfer size equal to the socket buffer size
//       produces the greatest throughput"), best of 5 complete transfers.
//       The reader acknowledges each transfer's completion.
#ifndef LMBENCHPP_SRC_BW_BW_IPC_H_
#define LMBENCHPP_SRC_BW_BW_IPC_H_

#include <cstddef>

#include "src/core/stats.h"
#include "src/core/timing.h"

namespace lmb::bw {

struct IpcBwConfig {
  // Bytes per complete transfer (TCP only).
  size_t total_bytes = 50u << 20;
  // Bytes per write and per read.
  size_t chunk_bytes = 64u << 10;
  // Best-of-N complete transfers (TCP only).
  int repetitions = 5;
  // SO_SNDBUF/SO_RCVBUF for TCP; 0 keeps the system default.
  int socket_buffer_bytes = 0;

  static IpcBwConfig pipe_default() { return IpcBwConfig{}; }
  static IpcBwConfig tcp_default() {
    IpcBwConfig c;
    c.chunk_bytes = 1u << 20;
    c.socket_buffer_bytes = 1 << 20;
    return c;
  }
};

// Pipe and AF_UNIX outcome.
struct StreamBwResult {
  // Headline: one chunk over measure()'s minimum ns per chunk.
  double mb_per_sec = 0.0;
  size_t chunk_bytes = 0;
  // One op is one chunk read.
  Measurement detail;
};

// TCP outcome.
struct IpcBwResult {
  // Headline: best (fastest) complete transfer.
  double mb_per_sec = 0.0;
  double mean_mb_per_sec = 0.0;
  size_t total_bytes = 0;
  size_t chunk_bytes = 0;
  // Per-repetition MB/s values.
  Sample per_rep;
};

// Writer child, timed reader parent over a pipe.
StreamBwResult measure_pipe_bw(const IpcBwConfig& config = IpcBwConfig::pipe_default(),
                               const TimingPolicy& policy = TimingPolicy::standard());

// Writer child, timed reader parent over an AF_UNIX stream pair.
StreamBwResult measure_unix_bw(const IpcBwConfig& config = IpcBwConfig::pipe_default(),
                               const TimingPolicy& policy = TimingPolicy::standard());

// Writer parent, reader child over loopback TCP.
IpcBwResult measure_tcp_bw(const IpcBwConfig& config = IpcBwConfig::tcp_default());

}  // namespace lmb::bw

#endif  // LMBENCHPP_SRC_BW_BW_IPC_H_
