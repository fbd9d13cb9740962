// TCP and UDP sockets over IPv4 loopback.
//
// The paper's TCP/UDP benchmarks all run in loopback mode (§5.2: "both ends
// of the socket are on the same machine"), so this API binds to 127.0.0.1
// with ephemeral ports and reports the port chosen.
#ifndef LMBENCHPP_SRC_SYS_SOCKET_H_
#define LMBENCHPP_SRC_SYS_SOCKET_H_

#include <netinet/in.h>

#include <cstdint>
#include <optional>
#include <string>

#include "src/sys/unique_fd.h"

namespace lmb::sys {

// A connected TCP stream.
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(UniqueFd fd) : fd_(std::move(fd)) {}

  // Connects to 127.0.0.1:port; throws on failure.  A nonzero
  // `buffer_bytes` sets SO_SNDBUF/SO_RCVBUF before connect(2), as lmbench
  // does (the paper enlarges both to 1M for bandwidth).  Set after the
  // handshake, the window scale is already negotiated for the default
  // buffer: 2 MB through 16 KB buffers then took seconds, not milliseconds.
  static TcpStream connect(std::uint16_t port, int buffer_bytes = 0);

  int fd() const { return fd_.get(); }
  bool valid() const { return fd_.valid(); }

  // Disables Nagle (latency benchmarks need immediate sends).
  void set_nodelay(bool on);

  void send_all(const void* buf, size_t len);
  void recv_all(void* buf, size_t len);
  // One recv; returns 0 on orderly shutdown.
  size_t recv_some(void* buf, size_t len);

  void shutdown_write();

 private:
  UniqueFd fd_;
};

// Begins a non-blocking connect to 127.0.0.1:port and returns the socket
// (O_NONBLOCK stays set).  Completion is signaled by writability; call
// tcp_finish_connect then.  Used by the many-connection load generator,
// which opens hundreds of flows concurrently — serial blocking connects
// would serialize the very concurrency being measured.
UniqueFd tcp_connect_begin(std::uint16_t port);

// After writability: reads SO_ERROR and throws SysError if the connect
// actually failed (e.g. listen backlog overflow -> ECONNREFUSED).
void tcp_finish_connect(int fd);

// TCP_NODELAY on a raw fd (latency traffic needs immediate sends).
void set_tcp_nodelay(int fd, bool on = true);

// A listening TCP socket on 127.0.0.1 with an ephemeral port.
class TcpListener {
 public:
  // `backlog` as for listen(2).  A nonzero `buffer_bytes` sets
  // SO_SNDBUF/SO_RCVBUF before listen(2); accepted sockets inherit them
  // (see TcpStream::connect for why the order matters).
  explicit TcpListener(int backlog = 16, int buffer_bytes = 0);

  // A listener with SO_REUSEPORT set before bind.  N such listeners bound
  // to the same port give the kernel N independent accept queues and a
  // per-connection hash across them — the standard way to shard one
  // listening port over N event-loop threads without an accept lock or a
  // thundering herd.  `port` 0 picks an ephemeral port (the first shard);
  // subsequent shards pass the first one's port() back in.
  static TcpListener with_reuseport(std::uint16_t port, int backlog = 16);

  std::uint16_t port() const { return port_; }
  int fd() const { return fd_.get(); }

  // Blocks until a connection arrives.
  TcpStream accept();

 private:
  TcpListener(int backlog, int buffer_bytes, std::uint16_t port, bool reuseport);

  UniqueFd fd_;
  std::uint16_t port_ = 0;
};

// A connected Unix-domain (AF_UNIX) stream — the lmbenchd control channel.
// Path-based addressing keeps the daemon local-only (filesystem permissions
// are the access control), matching the paper's loopback-only stance.
class UnixStream {
 public:
  UnixStream() = default;
  explicit UnixStream(UniqueFd fd) : fd_(std::move(fd)) {}

  // Connects to the socket at `path`; throws SysError on failure.  With
  // `timeout_ms` >= 0 the connect itself is bounded: a dead or unresponsive
  // endpoint raises SysError(ETIMEDOUT) instead of blocking forever.
  static UnixStream connect(const std::string& path, int timeout_ms = -1);

  int fd() const { return fd_.get(); }
  bool valid() const { return fd_.valid(); }

  void send_all(const void* buf, size_t len);
  void recv_all(void* buf, size_t len);
  // One recv; returns 0 on orderly shutdown.
  size_t recv_some(void* buf, size_t len);

  void shutdown_write();

 private:
  UniqueFd fd_;
};

// A listening Unix-domain socket at `path`.  The constructor unlinks a
// stale socket file left by a crashed predecessor; the destructor removes
// the path so a clean shutdown leaves no debris.
class UnixListener {
 public:
  explicit UnixListener(std::string path, int backlog = 16);
  ~UnixListener();

  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  const std::string& path() const { return path_; }
  int fd() const { return fd_.get(); }

  // Blocks until a connection arrives.
  UnixStream accept();

  // Bounded accept: nullopt after `timeout_ms` with no connection (lets an
  // accept loop poll a shutdown flag without an extra wakeup channel).
  std::optional<UnixStream> accept_for(int timeout_ms);

 private:
  UniqueFd fd_;
  std::string path_;
};

// A UDP socket bound to 127.0.0.1 with an ephemeral port.
class UdpSocket {
 public:
  UdpSocket();

  std::uint16_t port() const { return port_; }
  int fd() const { return fd_.get(); }

  // Fixes the peer so plain send/recv work.
  void connect_to(std::uint16_t port);

  void send(const void* buf, size_t len);
  size_t recv(void* buf, size_t len);

  void send_to(std::uint16_t port, const void* buf, size_t len);
  // Receives one datagram; fills `from_port` when non-null.
  size_t recv_from(void* buf, size_t len, std::uint16_t* from_port);

 private:
  UniqueFd fd_;
  std::uint16_t port_ = 0;
};

}  // namespace lmb::sys

#endif  // LMBENCHPP_SRC_SYS_SOCKET_H_
