#ifndef TSPN_COMMON_NET_H_
#define TSPN_COMMON_NET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace tspn::common {

/// RAII owner of one POSIX file descriptor (socket, pipe end, ...). Closes
/// on destruction; movable, not copyable, so a descriptor has exactly one
/// owner and a leaked fd is a compile-time shape error, not a runtime hunt.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { Reset(); }

  UniqueFd(UniqueFd&& other) noexcept : fd_(other.Release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }

  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Closes the held descriptor (if any) and takes ownership of `fd`.
  void Reset(int fd = -1);

  /// Gives up ownership without closing; returns the descriptor.
  int Release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

/// Puts the descriptor into non-blocking mode. False (with *error set) on
/// fcntl failure.
bool SetNonBlocking(int fd, std::string* error = nullptr);

/// One transport endpoint the serving stack can listen on or connect to —
/// the seam that lets FrameServer/FrameClient ride either TCP (cross-host)
/// or a unix-domain socket (the co-located-shard fast path: no TCP stack,
/// no ports to allocate, filesystem permissions for access control).
struct SocketAddress {
  enum class Kind : uint8_t {
    kTcp = 0,   ///< host:port over IPv4 loopback/LAN
    kUnix = 1,  ///< filesystem path (SOCK_STREAM AF_UNIX)
  };

  Kind kind = Kind::kTcp;
  std::string host = "127.0.0.1";  ///< kTcp: dotted-quad IPv4
  uint16_t port = 0;               ///< kTcp: 0 binds ephemeral
  std::string path;                ///< kUnix: socket path (sun_path-bounded)

  static SocketAddress Tcp(std::string host, uint16_t port);
  static SocketAddress Unix(std::string path);

  /// "tcp://127.0.0.1:4217" or "unix:///tmp/shard0.sock" — the canonical
  /// spelling Parse accepts, for CLI flags and log lines.
  std::string ToString() const;

  /// Inverse of ToString. A bare "host:port" is accepted as TCP shorthand.
  /// False with *error set on anything else.
  static bool Parse(const std::string& text, SocketAddress* out,
                    std::string* error = nullptr);
};

/// Opens a listener on the address (either kind). TCP port 0 picks an
/// ephemeral port; *bound (when non-null) reports the actual address. A
/// unix address unlinks any stale socket file at the path first, and the
/// file is NOT removed on close — owners that care run ::unlink on
/// shutdown. Invalid UniqueFd with *error set on failure; the socket is
/// non-blocking (TCP adds SO_REUSEADDR).
UniqueFd ListenOn(const SocketAddress& address, int backlog,
                  SocketAddress* bound, std::string* error = nullptr);

/// Blocking connect to the address (either kind). Invalid UniqueFd with
/// *error on failure. TCP sockets get TCP_NODELAY; the returned socket is
/// in blocking mode either way.
UniqueFd ConnectTo(const SocketAddress& address, std::string* error = nullptr);

/// Starts a connect to the address (either kind) on a non-blocking socket,
/// so the call never waits on the peer. When the connect is still under
/// way (TCP's EINPROGRESS) *in_progress is set: poll the socket for
/// POLLOUT, then ConnectResult says how it ended. Invalid UniqueFd with
/// *error on immediate failure (a full unix-domain backlog included). TCP
/// sockets get TCP_NODELAY.
UniqueFd StartConnect(const SocketAddress& address, bool* in_progress,
                      std::string* error = nullptr);

/// The outcome of a StartConnect that was in progress, once its socket
/// polled writable or errored: 0 when connected, else the errno it failed
/// with.
int ConnectResult(int fd);

/// TCP-only convenience over ListenOn: listener bound to host:port (port 0
/// picks an ephemeral port; the actual one is written to *bound_port).
/// Returns an invalid UniqueFd with *error set on failure. The socket is
/// non-blocking with SO_REUSEADDR.
UniqueFd ListenTcp(const std::string& host, uint16_t port, int backlog,
                   uint16_t* bound_port, std::string* error = nullptr);

/// Blocking TCP connect to host:port. Invalid UniqueFd with *error on
/// failure. The returned socket is in blocking mode (callers that want a
/// non-blocking socket run SetNonBlocking on it).
UniqueFd ConnectTcp(const std::string& host, uint16_t port,
                    std::string* error = nullptr);

/// Blocking, EINTR-safe full write of `size` bytes. Uses send(MSG_NOSIGNAL)
/// on sockets so a peer that hung up yields `false`, not SIGPIPE.
bool WriteAll(int fd, const void* data, size_t size);

/// Blocking, EINTR-safe full read of `size` bytes; false on EOF or error.
bool ReadAll(int fd, void* data, size_t size);

/// Little-endian uint32 byte helpers — the single definition of the
/// length-prefix framing shared by serve::FrameServer and
/// serve::FrameClient (docs/wire_protocol.md "Transport framing").
void StoreU32Le(uint32_t value, uint8_t out[4]);
uint32_t LoadU32Le(const uint8_t bytes[4]);

/// Self-pipe for waking a poll() loop from another thread: the loop polls
/// read_fd() for POLLIN, any thread calls Notify(), the loop calls Drain()
/// when woken. Both ends are non-blocking, so Notify never stalls (a full
/// pipe already guarantees a pending wake-up).
class WakePipe {
 public:
  WakePipe();

  bool valid() const { return read_.valid() && write_.valid(); }
  int read_fd() const { return read_.get(); }

  /// Wakes the poller. Safe from any thread; a no-op if the pipe is full
  /// (the reader is already due to wake).
  void Notify();

  /// Discards every pending wake byte. Called by the poll loop after it
  /// observes POLLIN on read_fd().
  void Drain();

 private:
  UniqueFd read_;
  UniqueFd write_;
};

}  // namespace tspn::common

#endif  // TSPN_COMMON_NET_H_
