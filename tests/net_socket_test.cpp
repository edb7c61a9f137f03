// Socket-level options of the serving transport. Both ends of a TCP
// connection must disable Nagle: a small reply the server holds back waits
// out the client's delayed ACK, which adds tens of milliseconds to every
// request that ends a burst.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>

#include "net/socket.hpp"

namespace hsd::net {
namespace {

int no_delay(const Socket& s) {
  int value = -1;
  socklen_t len = sizeof(value);
  if (::getsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &value, &len) != 0) return -1;
  return value;
}

TEST(NetSocket, TcpLoopbackPairHasNoDelayOnBothEnds) {
  const Socket listener = listen_on(parse_endpoint("tcp:127.0.0.1:0"), 4);
  const Endpoint ep = bound_endpoint(listener, parse_endpoint("tcp:127.0.0.1:0"));
  const Socket client = connect_to(ep, 2000);
  const Socket server = accept_with_timeout(listener, 2000);
  ASSERT_TRUE(client.valid());
  ASSERT_TRUE(server.valid());
  EXPECT_EQ(no_delay(client), 1);
  EXPECT_EQ(no_delay(server), 1);
}

TEST(NetSocket, UdsPairConnectsWithoutTcpOptions) {
  const std::string path = ::testing::TempDir() + "hsd-net-socket-test-" +
                           std::to_string(::getpid()) + ".sock";
  const Endpoint ep = parse_endpoint("uds:" + path);
  const Socket listener = listen_on(ep, 4);
  const Socket client = connect_to(ep, 2000);
  const Socket server = accept_with_timeout(listener, 2000);
  ASSERT_TRUE(client.valid());
  ASSERT_TRUE(server.valid());
  const std::uint8_t ping = 42;
  ASSERT_TRUE(send_all(client, &ping, 1));
  std::uint8_t got = 0;
  ASSERT_TRUE(recv_exact(server, &got, 1));
  EXPECT_EQ(got, ping);
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace hsd::net
