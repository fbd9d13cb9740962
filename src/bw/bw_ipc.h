// Interprocess-communication bandwidth — paper Table 3.
//
// Pipe: two processes, 50 MB moved through a pipe in 64 KB transfers.
// TCP:  same via a loopback socket in 1 MB transfers with 1 MB socket
//       buffers ("setting the transfer size equal to the socket buffer size
//       produces the greatest throughput").
// Unix: lmbench's bw_unix over an AF_UNIX socket pair (same shape as pipe).
//
// The reader acknowledges completion, "which guarantees that all data has
// been moved before the timing is finished" (§5.2).
#ifndef LMBENCHPP_SRC_BW_BW_IPC_H_
#define LMBENCHPP_SRC_BW_BW_IPC_H_

#include <cstddef>

#include "src/core/stats.h"

namespace lmb::bw {

struct IpcBwConfig {
  size_t total_bytes = 50u << 20;
  size_t chunk_bytes = 64u << 10;
  // Best-of-N complete transfers.
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

struct IpcBwResult {
  // Headline: best (fastest) complete transfer.
  double mb_per_sec = 0.0;
  double mean_mb_per_sec = 0.0;
  size_t total_bytes = 0;
  size_t chunk_bytes = 0;
  // Per-repetition MB/s values.
  Sample per_rep;
};

// Writer parent, reader child over a pipe.
IpcBwResult measure_pipe_bw(const IpcBwConfig& config = IpcBwConfig::pipe_default());

// Writer parent, reader child over loopback TCP.
IpcBwResult measure_tcp_bw(const IpcBwConfig& config = IpcBwConfig::tcp_default());

// Writer parent, reader child over an AF_UNIX stream pair.
IpcBwResult measure_unix_bw(const IpcBwConfig& config = IpcBwConfig::pipe_default());

}  // namespace lmb::bw

#endif  // LMBENCHPP_SRC_BW_BW_IPC_H_
