#include "src/bw/bw_ipc.h"

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

IpcBwResult measure_pipe_bw(const IpcBwConfig& config) {
  validate(config);
  Sample mbps;
  for (int rep = 0; rep < config.repetitions; ++rep) {
    sys::Pipe data;
    sys::Pipe ack;
    sys::Child child = sys::fork_child([&]() {
      data.close_write();
      ack.close_read();
      return reader_loop(data.read_fd(), ack.write_fd(), config.total_bytes, config.chunk_bytes);
    });
    data.close_read();
    ack.close_write();
    double ns =
        time_one_transfer(data.write_fd(), ack.read_fd(), config.total_bytes, config.chunk_bytes);
    data.close_write();
    if (child.wait() != 0) {
      throw std::runtime_error("pipe bandwidth reader failed");
    }
    mbps.add(mb_per_sec(static_cast<double>(config.total_bytes), ns));
  }
  return finish(config, std::move(mbps));
}

IpcBwResult measure_unix_bw(const IpcBwConfig& config) {
  validate(config);
  Sample mbps;
  for (int rep = 0; rep < config.repetitions; ++rep) {
    sys::SocketPair pair;
    sys::Child child = sys::fork_child([&]() {
      pair.close_first();
      // The socket is bidirectional: ack flows back on the same fd.
      return reader_loop(pair.second(), pair.second(), config.total_bytes, config.chunk_bytes);
    });
    pair.close_second();
    double ns =
        time_one_transfer(pair.first(), pair.first(), config.total_bytes, config.chunk_bytes);
    if (child.wait() != 0) {
      throw std::runtime_error("unix bandwidth reader failed");
    }
    mbps.add(mb_per_sec(static_cast<double>(config.total_bytes), ns));
  }
  return finish(config, std::move(mbps));
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

IpcBwConfig config_from_options(const Options& opts, IpcBwConfig base) {
  if (opts.quick()) {
    base.total_bytes = 4u << 20;
    base.repetitions = 2;
  }
  base.total_bytes = static_cast<size_t>(
      opts.get_size("total", static_cast<std::int64_t>(base.total_bytes)));
  base.chunk_bytes = static_cast<size_t>(
      opts.get_size("chunk", static_cast<std::int64_t>(base.chunk_bytes)));
  base.repetitions =
      opts.get_int_in("reps", base.repetitions, 1, std::numeric_limits<int>::max());
  return base;
}

RunResult mbps_result(const IpcBwResult& r) {
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
          return mbps_result(
              measure_pipe_bw(config_from_options(opts, IpcBwConfig::pipe_default())));
        },
}};

const BenchmarkRegistrar tcp_registrar{{
    .name = "bw_tcp",
    .category = "bandwidth",
    .description = "loopback TCP bandwidth, 1MB transfers (Table 3)",
    .run =
        [](const Options& opts) {
          return mbps_result(
              measure_tcp_bw(config_from_options(opts, IpcBwConfig::tcp_default())));
        },
}};

const BenchmarkRegistrar unix_registrar{{
    .name = "bw_unix",
    .category = "bandwidth",
    .description = "AF_UNIX stream bandwidth (lmbench bw_unix)",
    .run =
        [](const Options& opts) {
          return mbps_result(
              measure_unix_bw(config_from_options(opts, IpcBwConfig::pipe_default())));
        },
}};

}  // namespace

}  // namespace lmb::bw
