#include "src/sys/socket.h"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <thread>

#include "src/sys/error.h"
#include "src/sys/temp.h"

namespace lmb::sys {
namespace {

TEST(TcpTest, ListenerGetsEphemeralPort) {
  TcpListener listener;
  EXPECT_GT(listener.port(), 0);
  TcpListener second;
  EXPECT_NE(listener.port(), second.port());
}

TEST(TcpTest, ReuseportListenersShareOnePort) {
  TcpListener first = TcpListener::with_reuseport(0);
  ASSERT_GT(first.port(), 0);
  // A second listener joins the same port instead of failing EADDRINUSE.
  TcpListener second = TcpListener::with_reuseport(first.port());
  EXPECT_EQ(second.port(), first.port());

  // A connection lands on exactly one of the two accept queues.
  TcpStream client = TcpStream::connect(first.port());
  const std::string msg = "reuseport";
  client.send_all(msg.data(), msg.size());
  ::pollfd fds[2] = {{first.fd(), POLLIN, 0}, {second.fd(), POLLIN, 0}};
  ASSERT_GT(::poll(fds, 2, 2000), 0) << "no listener became readable";
  TcpStream server =
      (fds[0].revents & POLLIN) != 0 ? first.accept() : second.accept();
  std::string got(msg.size(), '\0');
  server.recv_all(got.data(), got.size());
  EXPECT_EQ(got, msg);
}

TEST(TcpTest, PlainListenerRejectsPortReuse) {
  // Without SO_REUSEPORT on both sockets the second bind must fail — the
  // sharing is opt-in, not ambient.
  TcpListener plain;
  EXPECT_THROW(TcpListener::with_reuseport(plain.port()), SysError);
}

TEST(TcpTest, ConnectAcceptEcho) {
  TcpListener listener;
  std::thread server([&] {
    TcpStream conn = listener.accept();
    char buf[16];
    conn.recv_all(buf, 5);
    conn.send_all(buf, 5);
  });
  TcpStream client = TcpStream::connect(listener.port());
  client.set_nodelay(true);
  client.send_all("hello", 5);
  char buf[5];
  client.recv_all(buf, 5);
  EXPECT_EQ(std::string(buf, 5), "hello");
  server.join();
}

TEST(TcpTest, ShutdownWriteDeliversEof) {
  TcpListener listener;
  std::thread server([&] {
    TcpStream conn = listener.accept();
    char c;
    EXPECT_EQ(conn.recv_some(&c, 1), 0u);
  });
  TcpStream client = TcpStream::connect(listener.port());
  client.shutdown_write();
  server.join();
}

TEST(TcpTest, ConnectToClosedPortFails) {
  std::uint16_t dead_port;
  {
    TcpListener listener;
    dead_port = listener.port();
  }
  EXPECT_THROW(TcpStream::connect(dead_port), SysError);
}

int rcvbuf(int fd) {
  int bytes = 0;
  socklen_t len = sizeof(bytes);
  check_syscall(::getsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, &len), "getsockopt SO_RCVBUF");
  return bytes;
}

// Buffers requested before the handshake hold on both ends: the connected
// socket sets its own, and the accepted one inherits the listener's.  Linux
// doubles the request for bookkeeping, so the read-back is at least it, and
// unlike an unsized socket's default.
TEST(TcpTest, BufferSizesAccepted) {
  constexpr int kBytes = 16 << 10;
  UniqueFd unsized(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(unsized.valid());
  TcpListener listener(16, kBytes);
  TcpStream client = TcpStream::connect(listener.port(), kBytes);
  TcpStream server = listener.accept();
  for (const TcpStream* end : {&client, &server}) {
    const char* which = end == &client ? "connected" : "accepted";
    EXPECT_GE(rcvbuf(end->fd()), kBytes) << which;
    EXPECT_NE(rcvbuf(end->fd()), rcvbuf(unsized.get())) << which;
  }
}

TEST(UdpTest, SendRecvConnected) {
  UdpSocket server;
  UdpSocket client;
  client.connect_to(server.port());
  client.send("data", 4);
  char buf[16];
  std::uint16_t from = 0;
  size_t n = server.recv_from(buf, sizeof(buf), &from);
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(std::string(buf, 4), "data");
  EXPECT_EQ(from, client.port());

  server.send_to(from, "resp", 4);
  n = client.recv(buf, sizeof(buf));
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(std::string(buf, 4), "resp");
}

TEST(UnixTest, ConnectAcceptEcho) {
  TempDir tmp;
  std::string path = tmp.path() + "/echo.sock";
  UnixListener listener(path);
  std::thread server([&] {
    UnixStream conn = listener.accept();
    char buf[8];
    conn.recv_all(buf, 5);
    conn.send_all(buf, 5);
  });
  UnixStream client = UnixStream::connect(path);
  client.send_all("hello", 5);
  char buf[8] = {};
  client.recv_all(buf, 5);
  EXPECT_EQ(std::string(buf, 5), "hello");
  server.join();
}

TEST(UnixTest, AcceptForTimesOutWithoutConnection) {
  TempDir tmp;
  UnixListener listener(tmp.path() + "/idle.sock");
  EXPECT_FALSE(listener.accept_for(50).has_value());
}

TEST(UnixTest, ConnectToMissingPathThrows) {
  TempDir tmp;
  EXPECT_THROW(UnixStream::connect(tmp.path() + "/nobody.sock", 200), SysError);
}

// Leaves a socket file on disk with no process behind it — what a crashed
// daemon leaves behind.
void leave_stale_socket(const std::string& path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ::close(fd);  // close does not unlink; the stale file stays
}

TEST(UnixTest, ConnectToDeadSocketFileThrows) {
  // A socket file whose listener is gone: connect must fail, bounded by
  // the timeout, not hang.
  TempDir tmp;
  std::string path = tmp.path() + "/dead.sock";
  leave_stale_socket(path);
  EXPECT_THROW(UnixStream::connect(path, 200), SysError);
}

TEST(UnixTest, ListenerReplacesStalePath) {
  TempDir tmp;
  std::string path = tmp.path() + "/stale.sock";
  leave_stale_socket(path);
  UnixListener listener(path);  // must not throw EADDRINUSE
  EXPECT_FALSE(listener.accept_for(10).has_value());
}

TEST(UdpTest, PreservesMessageBoundaries) {
  UdpSocket server;
  UdpSocket client;
  client.connect_to(server.port());
  client.send("one", 3);
  client.send("four", 4);
  char buf[16];
  EXPECT_EQ(server.recv_from(buf, sizeof(buf), nullptr), 3u);
  EXPECT_EQ(server.recv_from(buf, sizeof(buf), nullptr), 4u);
}

}  // namespace
}  // namespace lmb::sys
