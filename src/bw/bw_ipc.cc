#include "src/bw/bw_ipc.h"

#include <signal.h>
#include <unistd.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "src/core/clock.h"
#include "src/core/registry.h"
#include "src/core/timing.h"
#include "src/report/table.h"
#include "src/sys/fdio.h"
#include "src/sys/pipe.h"
#include "src/sys/process.h"
#include "src/sys/socket.h"

namespace lmb::bw {

namespace {

void validate(const IpcBwConfig& config) {
  if (config.total_bytes == 0 || config.chunk_bytes == 0 ||
      config.chunk_bytes > config.total_bytes) {
    throw std::invalid_argument("IpcBwConfig: need 0 < chunk <= total");
  }
  if (config.repetitions < 1) {
    throw std::invalid_argument("IpcBwConfig: repetitions must be >= 1");
  }
}

void validate_chunk(const IpcBwConfig& config) {
  if (config.chunk_bytes == 0) {
    throw std::invalid_argument("IpcBwConfig: chunk must be > 0");
  }
}

// A writer that runs until it is stopped.  Closing the read end is not
// enough to stop it: pipe and socket descriptors are not close-on-exec, so
// a copy of the read end held by any other process keeps the writer blocked
// in write(2), and Child's destructor would wait on it forever.  The
// destructor kills it on every exit path, including an exception from the
// timed body; the member's own destructor then reaps it.
class Writer {
 public:
  explicit Writer(sys::Child child) : child_(std::move(child)) {}
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;
  ~Writer() { ::kill(child_.pid(), SIGKILL); }

 private:
  sys::Child child_;
};

// The writer child's body: `buf`-sized writes to `fd` until it is killed.
// A failed write means the reader is gone.
int write_until_stopped(int fd, const std::vector<char>& buf) {
  try {
    while (true) {
      sys::write_full(fd, buf.data(), buf.size());
    }
  } catch (const std::exception&) {
    return 1;
  }
}

// Times reading `chunk`-sized blocks from `fd`; one op is one chunk.  A
// writer that dies mid-measure shows as EOF, and read_full throws.
StreamBwResult time_reads(int fd, size_t chunk, const TimingPolicy& policy) {
  std::vector<char> buf(chunk);
  StreamBwResult result;
  result.chunk_bytes = chunk;
  result.detail = measure(
      [&](std::uint64_t iters) {
        for (std::uint64_t i = 0; i < iters; ++i) {
          sys::read_full(fd, buf.data(), chunk);
        }
      },
      policy);
  result.mb_per_sec = mb_per_sec(static_cast<double>(chunk), result.detail.ns_per_op);
  return result;
}

// Reads exactly `total` bytes from `fd` in chunk-sized reads, then writes a
// single ack byte to `ack_fd`.  Returns an exit status.
int reader_loop(int fd, int ack_fd, size_t total, size_t chunk) {
  std::vector<char> buf(chunk);
  size_t remaining = total;
  while (remaining > 0) {
    size_t n = sys::read_some(fd, buf.data(), std::min(chunk, remaining));
    if (n == 0) {
      return 1;  // premature EOF
    }
    remaining -= n;
  }
  char ack = 'A';
  sys::write_full(ack_fd, &ack, 1);
  return 0;
}

// Times writing `total` bytes to `fd` in `chunk`-sized writes, then waiting
// for the ack byte on `ack_fd`.
double time_one_transfer(int fd, int ack_fd, size_t total, size_t chunk) {
  std::vector<char> buf(chunk, 'x');
  StopWatch sw;
  size_t remaining = total;
  while (remaining > 0) {
    size_t n = std::min(chunk, remaining);
    sys::write_full(fd, buf.data(), n);
    remaining -= n;
  }
  char ack = 0;
  sys::read_full(ack_fd, &ack, 1);
  return static_cast<double>(sw.elapsed());
}

IpcBwResult finish(const IpcBwConfig& config, Sample mbps) {
  IpcBwResult result;
  result.total_bytes = config.total_bytes;
  result.chunk_bytes = config.chunk_bytes;
  result.mb_per_sec = mbps.max();
  result.mean_mb_per_sec = mbps.mean();
  result.per_rep = std::move(mbps);
  return result;
}

}  // namespace

StreamBwResult measure_pipe_bw(const IpcBwConfig& config, const TimingPolicy& policy) {
  validate_chunk(config);
  sys::Pipe data;
  // Filled before fork, so the child allocates nothing.
  const std::vector<char> chunk(config.chunk_bytes, 'x');
  Writer writer(sys::fork_child([&]() {
    data.close_read();
    return write_until_stopped(data.write_fd(), chunk);
  }));
  data.close_write();
  return time_reads(data.read_fd(), config.chunk_bytes, policy);
}

StreamBwResult measure_unix_bw(const IpcBwConfig& config, const TimingPolicy& policy) {
  validate_chunk(config);
  sys::SocketPair pair;
  const std::vector<char> chunk(config.chunk_bytes, 'x');
  Writer writer(sys::fork_child([&]() {
    pair.close_first();
    return write_until_stopped(pair.second(), chunk);
  }));
  pair.close_second();
  return time_reads(pair.first(), config.chunk_bytes, policy);
}

IpcBwResult measure_tcp_bw(const IpcBwConfig& config) {
  validate(config);
  Sample mbps;
  for (int rep = 0; rep < config.repetitions; ++rep) {
    // Both ends size their buffers before the handshake (§5.2).
    sys::TcpListener listener(/*backlog=*/16, config.socket_buffer_bytes);
    sys::Child child = sys::fork_child([&]() {
      sys::TcpStream conn = listener.accept();
      return reader_loop(conn.fd(), conn.fd(), config.total_bytes, config.chunk_bytes);
    });
    sys::TcpStream conn = sys::TcpStream::connect(listener.port(), config.socket_buffer_bytes);
    double ns = time_one_transfer(conn.fd(), conn.fd(), config.total_bytes, config.chunk_bytes);
    if (child.wait() != 0) {
      throw std::runtime_error("tcp bandwidth reader failed");
    }
    mbps.add(mb_per_sec(static_cast<double>(config.total_bytes), ns));
  }
  return finish(config, std::move(mbps));
}

namespace {

// --chunk for every transfer; --total and --reps for bw_tcp only.
IpcBwConfig config_from_options(const Options& opts, IpcBwConfig base) {
  base.chunk_bytes = static_cast<size_t>(
      opts.get_size("chunk", static_cast<std::int64_t>(base.chunk_bytes)));
  return base;
}

IpcBwConfig tcp_config_from_options(const Options& opts) {
  IpcBwConfig base = config_from_options(opts, IpcBwConfig::tcp_default());
  if (opts.quick()) {
    base.total_bytes = 4u << 20;
    base.repetitions = 2;
  }
  base.total_bytes = static_cast<size_t>(
      opts.get_size("total", static_cast<std::int64_t>(base.total_bytes)));
  base.repetitions =
      opts.get_int_in("reps", base.repetitions, 1, std::numeric_limits<int>::max());
  return base;
}

TimingPolicy policy_from_options(const Options& opts) {
  return opts.quick() ? TimingPolicy::quick() : TimingPolicy::standard();
}

RunResult stream_result(const StreamBwResult& r) {
  RunResult out = RunResult{}.with(r.detail).add("mbs", r.mb_per_sec, "MB/s");
  out.metadata["chunk_bytes"] = std::to_string(r.chunk_bytes);
  out.display = report::format_number(r.mb_per_sec, 0) + " MB/s";
  return out;
}

RunResult tcp_result(const IpcBwResult& r) {
  RunResult out;
  out.add("mbs", r.mb_per_sec, "MB/s");
  out.metadata["total_bytes"] = std::to_string(r.total_bytes);
  out.metadata["chunk_bytes"] = std::to_string(r.chunk_bytes);
  out.display = report::format_number(r.mb_per_sec, 0) + " MB/s";
  return out;
}

const BenchmarkRegistrar pipe_registrar{{
    .name = "bw_pipe",
    .category = "bandwidth",
    .description = "pipe bandwidth, 64KB transfers (Table 3)",
    .run =
        [](const Options& opts) {
          return stream_result(
              measure_pipe_bw(config_from_options(opts, IpcBwConfig::pipe_default()),
                              policy_from_options(opts)));
        },
}};

const BenchmarkRegistrar tcp_registrar{{
    .name = "bw_tcp",
    .category = "bandwidth",
    .description = "loopback TCP bandwidth, 1MB transfers (Table 3)",
    .run =
        [](const Options& opts) {
          return tcp_result(measure_tcp_bw(tcp_config_from_options(opts)));
        },
}};

const BenchmarkRegistrar unix_registrar{{
    .name = "bw_unix",
    .category = "bandwidth",
    .description = "AF_UNIX stream bandwidth (lmbench bw_unix)",
    .run =
        [](const Options& opts) {
          return stream_result(
              measure_unix_bw(config_from_options(opts, IpcBwConfig::pipe_default()),
                              policy_from_options(opts)));
        },
}};

}  // namespace

}  // namespace lmb::bw
