#include "src/sys/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>

#include "src/sys/error.h"
#include "src/sys/fdio.h"

namespace lmb::sys {

namespace {

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

// SO_SNDBUF/SO_RCVBUF; 0 keeps the system default and makes no syscall.
void set_buffer_sizes(int fd, int bytes) {
  if (bytes == 0) {
    return;
  }
  check_syscall(::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes)),
                "setsockopt SO_SNDBUF");
  check_syscall(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes)),
                "setsockopt SO_RCVBUF");
}

std::uint16_t bound_port(int fd) {
  sockaddr_in addr;
  socklen_t len = sizeof(addr);
  check_syscall(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), "getsockname");
  return ntohs(addr.sin_port);
}

}  // namespace

TcpStream TcpStream::connect(std::uint16_t port, int buffer_bytes) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd) {
    throw_errno("socket");
  }
  set_buffer_sizes(fd.get(), buffer_bytes);
  sockaddr_in addr = loopback_addr(port);
  check_syscall(::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), "connect");
  return TcpStream(std::move(fd));
}

void TcpStream::set_nodelay(bool on) {
  int v = on ? 1 : 0;
  check_syscall(::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &v, sizeof(v)),
                "setsockopt TCP_NODELAY");
}

void TcpStream::send_all(const void* buf, size_t len) { write_full(fd_.get(), buf, len); }

void TcpStream::recv_all(void* buf, size_t len) { read_full(fd_.get(), buf, len); }

size_t TcpStream::recv_some(void* buf, size_t len) { return read_some(fd_.get(), buf, len); }

void TcpStream::shutdown_write() { check_syscall(::shutdown(fd_.get(), SHUT_WR), "shutdown"); }

UniqueFd tcp_connect_begin(std::uint16_t port) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0));
  if (!fd) {
    throw_errno("socket");
  }
  sockaddr_in addr = loopback_addr(port);
  int rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    throw_errno("connect");
  }
  return fd;
}

void tcp_finish_connect(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  check_syscall(::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len), "getsockopt SO_ERROR");
  if (err != 0) {
    throw SysError("connect", err);
  }
}

void set_tcp_nodelay(int fd, bool on) {
  int v = on ? 1 : 0;
  check_syscall(::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &v, sizeof(v)),
                "setsockopt TCP_NODELAY");
}

TcpListener::TcpListener(int backlog, int buffer_bytes)
    : TcpListener(backlog, buffer_bytes, 0, /*reuseport=*/false) {}

TcpListener TcpListener::with_reuseport(std::uint16_t port, int backlog) {
  return TcpListener(backlog, 0, port, /*reuseport=*/true);
}

TcpListener::TcpListener(int backlog, int buffer_bytes, std::uint16_t port, bool reuseport) {
  fd_.reset(static_cast<int>(check_syscall(::socket(AF_INET, SOCK_STREAM, 0), "socket")));
  int one = 1;
  check_syscall(::setsockopt(fd_.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)),
                "setsockopt SO_REUSEADDR");
  if (reuseport) {
    check_syscall(::setsockopt(fd_.get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)),
                  "setsockopt SO_REUSEPORT");
  }
  set_buffer_sizes(fd_.get(), buffer_bytes);
  sockaddr_in addr = loopback_addr(port);
  check_syscall(::bind(fd_.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), "bind");
  check_syscall(::listen(fd_.get(), backlog), "listen");
  port_ = bound_port(fd_.get());
}

TcpStream TcpListener::accept() {
  while (true) {
    int fd = ::accept(fd_.get(), nullptr, nullptr);
    if (fd >= 0) {
      return TcpStream(UniqueFd(fd));
    }
    if (errno != EINTR) {
      throw_errno("accept");
    }
  }
}

namespace {

sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr;
  memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::invalid_argument("unix socket path too long: " + path);
  }
  memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

UnixStream UnixStream::connect(const std::string& path, int timeout_ms) {
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd) {
    throw_errno("socket");
  }
  sockaddr_un addr = unix_addr(path);
  if (timeout_ms < 0) {
    check_syscall(::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
                  "connect");
    return UnixStream(std::move(fd));
  }
  // Bounded connect: non-blocking connect, poll for writability, then read
  // SO_ERROR for the real outcome.  (A missing socket file fails the
  // connect() itself with ENOENT/ECONNREFUSED — no polling needed.)
  int flags = static_cast<int>(check_syscall(::fcntl(fd.get(), F_GETFL), "fcntl F_GETFL"));
  check_syscall(::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK), "fcntl F_SETFL");
  int rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      throw_errno("connect " + path);
    }
    // Retried on EINTR: a signal during the handshake must not become a
    // spurious connect failure.
    pollfd pfd{fd.get(), POLLOUT, 0};
    int ready;
    while ((ready = ::poll(&pfd, 1, timeout_ms)) < 0) {
      if (errno != EINTR) {
        throw_errno("poll");
      }
    }
    if (ready == 0) {
      throw SysError("connect " + path + " timed out", ETIMEDOUT);
    }
    int err = 0;
    socklen_t len = sizeof(err);
    check_syscall(::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len),
                  "getsockopt SO_ERROR");
    if (err != 0) {
      throw SysError("connect " + path, err);
    }
  }
  check_syscall(::fcntl(fd.get(), F_SETFL, flags), "fcntl F_SETFL");
  return UnixStream(std::move(fd));
}

void UnixStream::send_all(const void* buf, size_t len) { write_full(fd_.get(), buf, len); }

void UnixStream::recv_all(void* buf, size_t len) { read_full(fd_.get(), buf, len); }

size_t UnixStream::recv_some(void* buf, size_t len) { return read_some(fd_.get(), buf, len); }

void UnixStream::shutdown_write() {
  check_syscall(::shutdown(fd_.get(), SHUT_WR), "shutdown");
}

UnixListener::UnixListener(std::string path, int backlog) : path_(std::move(path)) {
  fd_.reset(static_cast<int>(check_syscall(::socket(AF_UNIX, SOCK_STREAM, 0), "socket")));
  ::unlink(path_.c_str());  // stale socket from a crashed daemon; ENOENT is fine
  sockaddr_un addr = unix_addr(path_);
  check_syscall(::bind(fd_.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), "bind");
  check_syscall(::listen(fd_.get(), backlog), "listen");
}

UnixListener::~UnixListener() { ::unlink(path_.c_str()); }

UnixStream UnixListener::accept() {
  while (true) {
    int fd = ::accept(fd_.get(), nullptr, nullptr);
    if (fd >= 0) {
      return UnixStream(UniqueFd(fd));
    }
    if (errno != EINTR) {
      throw_errno("accept");
    }
  }
}

std::optional<UnixStream> UnixListener::accept_for(int timeout_ms) {
  // poll_readable retries EINTR: the daemon's accept loop lives here, and a
  // stray signal (far likelier with the load generator running in-process)
  // must produce a timeout or a connection, never a torn-down service.
  if (!poll_readable(fd_.get(), timeout_ms)) {
    return std::nullopt;
  }
  return accept();
}

UdpSocket::UdpSocket() {
  fd_.reset(static_cast<int>(check_syscall(::socket(AF_INET, SOCK_DGRAM, 0), "socket")));
  sockaddr_in addr = loopback_addr(0);
  check_syscall(::bind(fd_.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), "bind");
  port_ = bound_port(fd_.get());
}

void UdpSocket::connect_to(std::uint16_t port) {
  sockaddr_in addr = loopback_addr(port);
  check_syscall(::connect(fd_.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), "connect");
}

void UdpSocket::send(const void* buf, size_t len) {
  check_syscall(::send(fd_.get(), buf, len, 0), "send");
}

size_t UdpSocket::recv(void* buf, size_t len) {
  while (true) {
    ssize_t n = ::recv(fd_.get(), buf, len, 0);
    if (n >= 0) {
      return static_cast<size_t>(n);
    }
    if (errno != EINTR) {
      throw_errno("recv");
    }
  }
}

void UdpSocket::send_to(std::uint16_t port, const void* buf, size_t len) {
  sockaddr_in addr = loopback_addr(port);
  check_syscall(
      ::sendto(fd_.get(), buf, len, 0, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
      "sendto");
}

size_t UdpSocket::recv_from(void* buf, size_t len, std::uint16_t* from_port) {
  sockaddr_in addr;
  socklen_t alen = sizeof(addr);
  while (true) {
    ssize_t n = ::recvfrom(fd_.get(), buf, len, 0, reinterpret_cast<sockaddr*>(&addr), &alen);
    if (n >= 0) {
      if (from_port != nullptr) {
        *from_port = ntohs(addr.sin_port);
      }
      return static_cast<size_t>(n);
    }
    if (errno != EINTR) {
      throw_errno("recvfrom");
    }
  }
}

}  // namespace lmb::sys
