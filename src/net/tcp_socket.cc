#include "net/tcp_socket.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

namespace davix {
namespace net {
namespace {

// Last-resort connect bound for direct TcpSocket users who pass a
// non-positive timeout. Requests routed through core::SessionPool never
// reach it: the pool resolves RequestParams::connect_timeout_micros
// (default 15 s) and caps it by the request's armed deadline first.
constexpr int64_t kDefaultConnectTimeoutMicros = 30'000'000;

Status ErrnoStatus(const char* op, int err) {
  return Status::IoError(std::string(op) + ": " + strerror(err));
}

/// Waits for `events` on fd. Returns kTimeout on expiry.
Status PollFd(int fd, short events, int64_t timeout_micros) {
  pollfd pfd = {};
  pfd.fd = fd;
  pfd.events = events;
  int timeout_ms =
      timeout_micros <= 0
          ? -1
          : static_cast<int>(std::max<int64_t>(1, timeout_micros / 1000));
  while (true) {
    int rc = poll(&pfd, 1, timeout_ms);
    if (rc > 0) return Status::OK();
    if (rc == 0) return Status::Timeout("poll timed out");
    if (errno == EINTR) continue;
    return ErrnoStatus("poll", errno);
  }
}

}  // namespace

TcpSocket::~TcpSocket() { Close(); }

TcpSocket::TcpSocket(TcpSocket&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

TcpSocket& TcpSocket::operator=(TcpSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Result<TcpSocket> TcpSocket::Connect(const SocketAddress& address,
                                     int64_t timeout_micros) {
  if (timeout_micros <= 0) timeout_micros = kDefaultConnectTimeoutMicros;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket", errno);
  TcpSocket sock(fd);

  // Non-blocking connect so the timeout is enforceable.
  int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&address.raw()),
                     sizeof(sockaddr_in));
  if (rc != 0) {
    if (errno != EINPROGRESS) {
      return Status::ConnectionFailed(std::string("connect to ") +
                                      address.ToString() + ": " +
                                      strerror(errno));
    }
    Status st = PollFd(fd, POLLOUT, timeout_micros);
    if (!st.ok()) {
      return Status::ConnectionFailed("connect to " + address.ToString() +
                                      ": " + st.ToString());
    }
    int err = 0;
    socklen_t len = sizeof(err);
    getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      return Status::ConnectionFailed("connect to " + address.ToString() +
                                      ": " + strerror(err));
    }
  }
  fcntl(fd, F_SETFL, flags);  // back to blocking
  return sock;
}

Result<size_t> TcpSocket::Read(char* buf, size_t len, int64_t timeout_micros) {
  if (!IsOpen()) return Status::ConnectionReset("read on closed socket");
  if (timeout_micros > 0) {
    Status st = PollFd(fd_, POLLIN, timeout_micros);
    if (!st.ok()) return st;
  }
  while (true) {
    ssize_t n = ::recv(fd_, buf, len, 0);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == ECONNRESET) {
      return Status::ConnectionReset("connection reset by peer");
    }
    return ErrnoStatus("recv", errno);
  }
}

Status TcpSocket::WriteAll(std::string_view data, int64_t timeout_micros) {
  if (!IsOpen()) return Status::ConnectionReset("write on closed socket");
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::send(fd_, data.data() + written, data.size() - written,
                       MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      Status st = PollFd(fd_, POLLOUT, timeout_micros);
      if (!st.ok()) return st;
      continue;
    }
    if (errno == EPIPE || errno == ECONNRESET) {
      return Status::ConnectionReset("peer closed during write");
    }
    return ErrnoStatus("send", errno);
  }
  return Status::OK();
}

Status TcpSocket::SetNonBlocking(bool enabled) {
  if (!IsOpen()) return Status::ConnectionReset("fcntl on closed socket");
  int flags = fcntl(fd_, F_GETFL, 0);
  if (flags < 0) return ErrnoStatus("fcntl(F_GETFL)", errno);
  int wanted = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (fcntl(fd_, F_SETFL, wanted) != 0) {
    return ErrnoStatus("fcntl(F_SETFL)", errno);
  }
  return Status::OK();
}

Result<size_t> TcpSocket::ReadNonBlocking(char* buf, size_t len) {
  if (!IsOpen()) return Status::ConnectionReset("read on closed socket");
  while (true) {
    ssize_t n = ::recv(fd_, buf, len, MSG_DONTWAIT);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Timeout("read would block");
    }
    if (errno == ECONNRESET) {
      return Status::ConnectionReset("connection reset by peer");
    }
    return ErrnoStatus("recv", errno);
  }
}

Result<size_t> TcpSocket::WriteSome(std::string_view data) {
  if (!IsOpen()) return Status::ConnectionReset("write on closed socket");
  while (true) {
    ssize_t n =
        ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Timeout("write would block");
    }
    if (errno == EPIPE || errno == ECONNRESET) {
      return Status::ConnectionReset("peer closed during write");
    }
    return ErrnoStatus("send", errno);
  }
}

Status TcpSocket::SetNoDelay(bool enabled) {
  int value = enabled ? 1 : 0;
  if (setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &value, sizeof(value)) != 0) {
    return ErrnoStatus("setsockopt(TCP_NODELAY)", errno);
  }
  return Status::OK();
}

void TcpSocket::ShutdownWrite() {
  if (IsOpen()) ::shutdown(fd_, SHUT_WR);
}

void TcpSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<SocketAddress> TcpSocket::LocalAddress() const {
  sockaddr_in addr = {};
  socklen_t len = sizeof(addr);
  if (getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return ErrnoStatus("getsockname", errno);
  }
  return SocketAddress::FromSockaddr(addr);
}

TcpListener::~TcpListener() { Close(); }

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

Result<TcpListener> TcpListener::Listen(uint16_t port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket", errno);
  TcpListener listener;
  listener.fd_ = fd;

  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  DAVIX_ASSIGN_OR_RETURN(SocketAddress addr,
                         SocketAddress::Resolve("127.0.0.1", port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr.raw()),
             sizeof(sockaddr_in)) != 0) {
    return ErrnoStatus("bind", errno);
  }
  if (::listen(fd, backlog) != 0) return ErrnoStatus("listen", errno);

  sockaddr_in bound = {};
  socklen_t len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return ErrnoStatus("getsockname", errno);
  }
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

Status TcpListener::SetNonBlocking(bool enabled) {
  if (!IsOpen()) return Status::ConnectionReset("fcntl on closed listener");
  int flags = fcntl(fd_, F_GETFL, 0);
  if (flags < 0) return ErrnoStatus("fcntl(F_GETFL)", errno);
  int wanted = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (fcntl(fd_, F_SETFL, wanted) != 0) {
    return ErrnoStatus("fcntl(F_SETFL)", errno);
  }
  return Status::OK();
}

Result<TcpSocket> TcpListener::AcceptNonBlocking() {
  if (!IsOpen()) return Status::ConnectionReset("accept on closed listener");
  while (true) {
    int fd = ::accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) return TcpSocket(fd);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Timeout("accept would block");
    }
    return ErrnoStatus("accept4", errno);
  }
}

void TcpListener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace net
}  // namespace davix
