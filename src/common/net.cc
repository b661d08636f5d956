#include "common/net.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace tspn::common {

namespace {

void SetError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what + ": " + std::strerror(errno);
}

/// Parses a dotted-quad host into an IPv4 sockaddr. The serving stack is
/// loopback/LAN-oriented; name resolution is the caller's business.
bool FillAddr(const std::string& host, uint16_t port, sockaddr_in* addr,
              std::string* error) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  if (host.empty() || host == "0.0.0.0") {
    addr->sin_addr.s_addr = htonl(INADDR_ANY);
    return true;
  }
  if (inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1) return true;
  if (error != nullptr) {
    *error = "host '" + host + "' is not a dotted-quad IPv4 address";
  }
  return false;
}

/// Fills an AF_UNIX sockaddr; the path must fit sun_path with its NUL.
bool FillUnixAddr(const std::string& path, sockaddr_un* addr,
                  std::string* error) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) {
    if (error != nullptr) {
      *error = "unix socket path '" + path + "' is empty or longer than " +
               std::to_string(sizeof(addr->sun_path) - 1) + " bytes";
    }
    return false;
  }
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

UniqueFd ListenUnix(const std::string& path, int backlog, std::string* error) {
  sockaddr_un addr;
  if (!FillUnixAddr(path, &addr, error)) return UniqueFd();
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    SetError(error, "socket(AF_UNIX)");
    return UniqueFd();
  }
  // A previous owner that crashed leaves the socket file behind and bind
  // would fail with EADDRINUSE forever; the new listener owns the path.
  ::unlink(path.c_str());
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    SetError(error, "bind " + path);
    return UniqueFd();
  }
  if (::listen(fd.get(), backlog) < 0) {
    SetError(error, "listen " + path);
    return UniqueFd();
  }
  if (!SetNonBlocking(fd.get(), error)) return UniqueFd();
  return fd;
}

UniqueFd ConnectUnix(const std::string& path, std::string* error) {
  sockaddr_un addr;
  if (!FillUnixAddr(path, &addr, error)) return UniqueFd();
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    SetError(error, "socket(AF_UNIX)");
    return UniqueFd();
  }
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    SetError(error, "connect " + path);
    return UniqueFd();
  }
  return fd;
}

}  // namespace

SocketAddress SocketAddress::Tcp(std::string host, uint16_t port) {
  SocketAddress a;
  a.kind = Kind::kTcp;
  a.host = std::move(host);
  a.port = port;
  return a;
}

SocketAddress SocketAddress::Unix(std::string path) {
  SocketAddress a;
  a.kind = Kind::kUnix;
  a.path = std::move(path);
  return a;
}

std::string SocketAddress::ToString() const {
  if (kind == Kind::kUnix) return "unix://" + path;
  return "tcp://" + host + ":" + std::to_string(port);
}

bool SocketAddress::Parse(const std::string& text, SocketAddress* out,
                          std::string* error) {
  std::string rest = text;
  bool is_unix = false;
  if (rest.rfind("unix://", 0) == 0) {
    is_unix = true;
    rest = rest.substr(7);
  } else if (rest.rfind("tcp://", 0) == 0) {
    rest = rest.substr(6);
  }
  if (is_unix) {
    if (rest.empty()) {
      if (error != nullptr) *error = "empty unix socket path in '" + text + "'";
      return false;
    }
    *out = Unix(rest);
    return true;
  }
  const size_t colon = rest.rfind(':');
  if (colon == std::string::npos || colon + 1 >= rest.size()) {
    if (error != nullptr) {
      *error = "address '" + text + "' is not host:port or unix://path";
    }
    return false;
  }
  char* end = nullptr;
  const unsigned long port = std::strtoul(rest.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || port > 65535) {
    if (error != nullptr) *error = "bad port in address '" + text + "'";
    return false;
  }
  *out = Tcp(rest.substr(0, colon), static_cast<uint16_t>(port));
  return true;
}

UniqueFd ListenOn(const SocketAddress& address, int backlog,
                  SocketAddress* bound, std::string* error) {
  if (address.kind == SocketAddress::Kind::kUnix) {
    UniqueFd fd = ListenUnix(address.path, backlog, error);
    if (fd.valid() && bound != nullptr) *bound = address;
    return fd;
  }
  uint16_t bound_port = 0;
  UniqueFd fd =
      ListenTcp(address.host, address.port, backlog, &bound_port, error);
  if (fd.valid() && bound != nullptr) {
    *bound = SocketAddress::Tcp(address.host, bound_port);
  }
  return fd;
}

UniqueFd ConnectTo(const SocketAddress& address, std::string* error) {
  if (address.kind == SocketAddress::Kind::kUnix) {
    return ConnectUnix(address.path, error);
  }
  return ConnectTcp(address.host, address.port, error);
}

UniqueFd StartConnect(const SocketAddress& address, bool* in_progress,
                      std::string* error) {
  *in_progress = false;
  sockaddr_storage storage;
  std::memset(&storage, 0, sizeof(storage));
  socklen_t length = 0;
  const bool unix_domain = address.kind == SocketAddress::Kind::kUnix;
  if (unix_domain) {
    if (!FillUnixAddr(address.path, reinterpret_cast<sockaddr_un*>(&storage),
                      error)) {
      return UniqueFd();
    }
    length = sizeof(sockaddr_un);
  } else {
    const std::string host = address.host.empty() ? "127.0.0.1" : address.host;
    if (!FillAddr(host, address.port, reinterpret_cast<sockaddr_in*>(&storage),
                  error)) {
      return UniqueFd();
    }
    length = sizeof(sockaddr_in);
  }
  UniqueFd fd(::socket(unix_domain ? AF_UNIX : AF_INET,
                       SOCK_STREAM | SOCK_NONBLOCK, 0));
  if (!fd.valid()) {
    SetError(error, "socket");
    return UniqueFd();
  }
  if (!unix_domain) {
    const int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&storage),
                length) == 0) {
    return fd;
  }
  // An interrupted non-blocking connect carries on in the background, as
  // one that reported EINPROGRESS does.
  if (errno == EINPROGRESS || errno == EINTR) {
    *in_progress = true;
    return fd;
  }
  SetError(error, "connect " + address.ToString());
  return UniqueFd();
}

int ConnectResult(int fd) {
  int result = 0;
  socklen_t size = sizeof(result);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &result, &size) < 0) return errno;
  return result;
}

void UniqueFd::Reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

bool SetNonBlocking(int fd, std::string* error) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    SetError(error, "fcntl(O_NONBLOCK)");
    return false;
  }
  return true;
}

UniqueFd ListenTcp(const std::string& host, uint16_t port, int backlog,
                   uint16_t* bound_port, std::string* error) {
  sockaddr_in addr;
  if (!FillAddr(host, port, &addr, error)) return UniqueFd();
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    SetError(error, "socket");
    return UniqueFd();
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    SetError(error, "bind " + host + ":" + std::to_string(port));
    return UniqueFd();
  }
  if (::listen(fd.get(), backlog) < 0) {
    SetError(error, "listen");
    return UniqueFd();
  }
  if (!SetNonBlocking(fd.get(), error)) return UniqueFd();
  if (bound_port != nullptr) {
    sockaddr_in actual;
    socklen_t len = sizeof(actual);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&actual), &len) <
        0) {
      SetError(error, "getsockname");
      return UniqueFd();
    }
    *bound_port = ntohs(actual.sin_port);
  }
  return fd;
}

UniqueFd ConnectTcp(const std::string& host, uint16_t port,
                    std::string* error) {
  sockaddr_in addr;
  if (!FillAddr(host.empty() ? "127.0.0.1" : host, port, &addr, error)) {
    return UniqueFd();
  }
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    SetError(error, "socket");
    return UniqueFd();
  }
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    SetError(error, "connect " + host + ":" + std::to_string(port));
    return UniqueFd();
  }
  // Frames are small and latency-sensitive; don't let Nagle hold a response
  // frame hostage to the next one.
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool WriteAll(int fd, const void* data, size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  while (size > 0) {
    // MSG_NOSIGNAL: a peer that closed mid-write must surface as an error
    // return, never as a process-killing SIGPIPE. send() fails with ENOTSOCK
    // on non-socket fds, where plain write() (no SIGPIPE concern from
    // sockets) takes over.
    ssize_t n = ::send(fd, p, size, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) n = ::write(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t size) {
  auto* p = static_cast<uint8_t*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // EOF mid-object
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

void StoreU32Le(uint32_t value, uint8_t out[4]) {
  out[0] = static_cast<uint8_t>(value & 0xff);
  out[1] = static_cast<uint8_t>((value >> 8) & 0xff);
  out[2] = static_cast<uint8_t>((value >> 16) & 0xff);
  out[3] = static_cast<uint8_t>((value >> 24) & 0xff);
}

uint32_t LoadU32Le(const uint8_t bytes[4]) {
  return static_cast<uint32_t>(bytes[0]) |
         (static_cast<uint32_t>(bytes[1]) << 8) |
         (static_cast<uint32_t>(bytes[2]) << 16) |
         (static_cast<uint32_t>(bytes[3]) << 24);
}

WakePipe::WakePipe() {
  int fds[2];
  if (::pipe(fds) != 0) return;
  read_.Reset(fds[0]);
  write_.Reset(fds[1]);
  SetNonBlocking(read_.get());
  SetNonBlocking(write_.get());
}

void WakePipe::Notify() {
  if (!write_.valid()) return;
  const uint8_t byte = 1;
  // EAGAIN means the pipe already holds unconsumed wake bytes: the poller is
  // guaranteed to wake, so dropping this one is correct.
  ssize_t rc;
  do {
    rc = ::write(write_.get(), &byte, 1);
  } while (rc < 0 && errno == EINTR);
}

void WakePipe::Drain() {
  if (!read_.valid()) return;
  uint8_t scratch[64];
  while (::read(read_.get(), scratch, sizeof(scratch)) > 0) {
  }
}

}  // namespace tspn::common
