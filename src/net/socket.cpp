#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace hsd::net {

namespace {

std::string errno_text(const char* what, const std::string& detail) {
  return std::string("net: ") + what + " " + detail + ": " +
         std::strerror(errno);
}

/// Fills a sockaddr_un for `path` (length already validated by parse).
sockaddr_un make_uds_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in make_tcp_addr(const Endpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    throw NetError("net: tcp host must be a numeric IPv4 address, got `" +
                   ep.host + "`");
  }
  return addr;
}

// The sockets API takes sockaddr* aliases of the concrete address structs;
// going through void* keeps the conversion explicit without a
// reinterpret_cast (banned project-wide — see hsd_lint no-reinterpret-cast).
template <typename T>
sockaddr* sa_cast(T* p) {
  return static_cast<sockaddr*>(static_cast<void*>(p));
}
template <typename T>
const sockaddr* sa_cast(const T* p) {
  return static_cast<const sockaddr*>(static_cast<const void*>(p));
}

/// Waits for the fd to become readable/writable. Returns false on timeout.
bool wait_fd(int fd, short events, int timeout_ms) {
  pollfd p{};
  p.fd = fd;
  p.events = events;
  for (;;) {
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno == EINTR) continue;
    throw NetError(errno_text("poll on", "fd"));
  }
}

/// Disables Nagle on a TCP socket. Both ends need it: a small reply held
/// back by Nagle waits out the peer's delayed ACK (~40 ms on Linux).
void set_no_delay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Endpoint parse_endpoint(const std::string& spec) {
  Endpoint ep;
  if (spec.rfind("uds:", 0) == 0) {
    ep.kind = Endpoint::Kind::kUds;
    ep.path = spec.substr(4);
    if (ep.path.empty()) throw NetError("net: empty uds path in `" + spec + "`");
    sockaddr_un probe{};
    if (ep.path.size() + 1 > sizeof(probe.sun_path)) {
      throw NetError("net: uds path too long (" +
                     std::to_string(ep.path.size()) + " > " +
                     std::to_string(sizeof(probe.sun_path) - 1) + "): `" +
                     ep.path + "`");
    }
    return ep;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    ep.kind = Endpoint::Kind::kTcp;
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size()) {
      throw NetError("net: expected tcp:<host>:<port>, got `" + spec + "`");
    }
    ep.host = rest.substr(0, colon);
    const std::string port_text = rest.substr(colon + 1);
    unsigned long port = 0;
    std::size_t used = 0;
    try {
      port = std::stoul(port_text, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != port_text.size() || port > 65535) {
      throw NetError("net: bad tcp port `" + port_text + "` in `" + spec + "`");
    }
    ep.port = static_cast<std::uint16_t>(port);
    return ep;
  }
  throw NetError("net: endpoint must start with uds: or tcp:, got `" + spec +
                 "`");
}

std::string to_string(const Endpoint& ep) {
  if (ep.kind == Endpoint::Kind::kUds) return "uds:" + ep.path;
  return "tcp:" + ep.host + ":" + std::to_string(ep.port);
}

Socket listen_on(const Endpoint& ep, int backlog) {
  if (ep.kind == Endpoint::Kind::kUds) {
    Socket s(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!s.valid()) throw NetError(errno_text("socket for", to_string(ep)));
    ::unlink(ep.path.c_str());  // stale socket file from a dead server
    sockaddr_un addr = make_uds_addr(ep.path);
    if (::bind(s.fd(), sa_cast(&addr), sizeof(addr)) != 0) {
      throw NetError(errno_text("bind", to_string(ep)));
    }
    if (::listen(s.fd(), backlog) != 0) {
      throw NetError(errno_text("listen on", to_string(ep)));
    }
    return s;
  }
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) throw NetError(errno_text("socket for", to_string(ep)));
  const int one = 1;
  ::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_tcp_addr(ep);
  if (::bind(s.fd(), sa_cast(&addr), sizeof(addr)) != 0) {
    throw NetError(errno_text("bind", to_string(ep)));
  }
  if (::listen(s.fd(), backlog) != 0) {
    throw NetError(errno_text("listen on", to_string(ep)));
  }
  return s;
}

Endpoint bound_endpoint(const Socket& listener, const Endpoint& requested) {
  if (requested.kind == Endpoint::Kind::kUds) return requested;
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(listener.fd(), sa_cast(&addr), &len) != 0) {
    throw NetError(errno_text("getsockname on", to_string(requested)));
  }
  Endpoint ep = requested;
  ep.port = ntohs(addr.sin_port);
  return ep;
}

Socket accept_with_timeout(const Socket& listener, int timeout_ms) {
  if (!wait_fd(listener.fd(), POLLIN, timeout_ms)) return Socket();
  sockaddr_storage peer{};
  socklen_t peer_len = sizeof(peer);
  const int fd = ::accept(listener.fd(), sa_cast(&peer), &peer_len);
  if (fd < 0) {
    if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
        errno == EWOULDBLOCK) {
      return Socket();
    }
    throw NetError(errno_text("accept on", "listener"));
  }
  if (peer.ss_family == AF_INET) set_no_delay(fd);
  return Socket(fd);
}

Socket connect_to(const Endpoint& ep, int timeout_ms) {
  const int family = ep.kind == Endpoint::Kind::kUds ? AF_UNIX : AF_INET;
  Socket s(::socket(family, SOCK_STREAM, 0));
  if (!s.valid()) throw NetError(errno_text("socket for", to_string(ep)));

  int rc = 0;
  if (ep.kind == Endpoint::Kind::kUds) {
    sockaddr_un addr = make_uds_addr(ep.path);
    rc = ::connect(s.fd(), sa_cast(&addr), sizeof(addr));
  } else {
    sockaddr_in addr = make_tcp_addr(ep);
    rc = ::connect(s.fd(), sa_cast(&addr), sizeof(addr));
  }
  // Blocking connect with a bounded wait: UDS connects resolve immediately;
  // TCP to a dead host may hang, so poll for writability with the timeout.
  if (rc != 0 && errno == EINPROGRESS) {
    if (!wait_fd(s.fd(), POLLOUT, timeout_ms)) {
      throw NetError("net: connect to " + to_string(ep) + " timed out");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(s.fd(), SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      errno = err;
      throw NetError(errno_text("connect to", to_string(ep)));
    }
  } else if (rc != 0) {
    throw NetError(errno_text("connect to", to_string(ep)));
  }
  if (ep.kind == Endpoint::Kind::kTcp) set_no_delay(s.fd());
  return s;
}

bool send_all(const Socket& s, const std::uint8_t* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t rc =
        ::send(s.fd(), data + sent, n - sent, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET || errno == EBADF ||
          errno == ENOTCONN) {
        return false;
      }
      throw NetError(errno_text("send on", "connection"));
    }
    sent += static_cast<std::size_t>(rc);
  }
  return true;
}

long recv_some(const Socket& s, std::uint8_t* out, std::size_t cap,
               int timeout_ms) {
  if (!wait_fd(s.fd(), POLLIN, timeout_ms)) return -1;
  for (;;) {
    const ssize_t rc = ::recv(s.fd(), out, cap, 0);
    if (rc >= 0) return static_cast<long>(rc);
    if (errno == EINTR) continue;
    if (errno == ECONNRESET || errno == EBADF || errno == ENOTCONN) return 0;
    throw NetError(errno_text("recv on", "connection"));
  }
}

bool recv_exact(const Socket& s, std::uint8_t* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const long rc = recv_some(s, out + got, n - got, -1);
    if (rc <= 0) return false;
    got += static_cast<std::size_t>(rc);
  }
  return true;
}

}  // namespace hsd::net
