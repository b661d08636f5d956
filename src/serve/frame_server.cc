#include "serve/frame_server.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

#include "serve/codec.h"

namespace tspn::serve {

namespace {

/// Transport framing: uint32 little-endian frame length, then the frame
/// (common::Load/StoreU32Le are the shared byte-order definition).
constexpr size_t kLengthPrefixBytes = sizeof(uint32_t);

/// Wraps a TSWP frame with the outer length prefix, producing the exact
/// byte run the socket writes.
std::vector<uint8_t> WrapFrame(const std::vector<uint8_t>& frame) {
  std::vector<uint8_t> wrapped(kLengthPrefixBytes + frame.size());
  common::StoreU32Le(static_cast<uint32_t>(frame.size()), wrapped.data());
  std::memcpy(wrapped.data() + kLengthPrefixBytes, frame.data(),
              frame.size());
  return wrapped;
}

void BumpMax(std::atomic<int64_t>& max, int64_t candidate) {
  int64_t prev = max.load(std::memory_order_relaxed);
  while (candidate > prev &&
         !max.compare_exchange_weak(prev, candidate,
                                    std::memory_order_relaxed)) {
  }
}

}  // namespace

/// One IO thread's world: the wake pipe completions ring, the handoff
/// mailbox the acceptor feeds, and the shard of connections the poll loop
/// owns. shared_ptr-held so continuations can wake it (or discover it is
/// stopping) no matter when they complete.
struct FrameServer::IoLoop {
  common::WakePipe wake;
  std::mutex mutex;  ///< guards incoming + stopping
  std::vector<std::shared_ptr<Connection>> incoming;
  bool stopping = false;

  /// Loop-thread-only connection shard.
  std::vector<std::shared_ptr<Connection>> conns;
};

FrameServer::FrameServer(FrameHandler& handler, FrameServerOptions options)
    : handler_(handler),
      options_(options),
      shared_(std::make_shared<Shared>()) {
  shared_->options = options_;
}

FrameServer::~FrameServer() { Stop(); }

bool FrameServer::Start(std::string* error) {
  if (running_.load()) {
    if (error != nullptr) *error = "FrameServer is already running";
    return false;
  }
  if (options_.io_threads < 1) {  // the acceptor deals connections to them
    if (error != nullptr) *error = "FrameServer needs io_threads >= 1";
    return false;
  }
  stopping_.store(false);
  const common::SocketAddress want =
      options_.unix_path.empty()
          ? common::SocketAddress::Tcp(options_.host, options_.port)
          : common::SocketAddress::Unix(options_.unix_path);
  listen_fd_ = common::ListenOn(want, 128, &address_, error);
  if (!listen_fd_.valid()) return false;
  port_ = address_.kind == common::SocketAddress::Kind::kTcp ? address_.port
                                                             : 0;
  if (!acceptor_wake_.valid()) {
    if (error != nullptr) *error = "FrameServer wake pipe failed";
    return false;
  }
  io_loops_.clear();
  io_threads_.clear();
  for (int i = 0; i < options_.io_threads; ++i) {
    auto loop = std::make_shared<IoLoop>();
    if (!loop->wake.valid()) {
      if (error != nullptr) *error = "FrameServer wake pipe failed";
      io_loops_.clear();
      return false;
    }
    io_loops_.push_back(std::move(loop));
  }
  running_.store(true);
  for (const std::shared_ptr<IoLoop>& loop : io_loops_) {
    io_threads_.emplace_back(&FrameServer::RunIoLoop, this, loop);
  }
  acceptor_thread_ = std::thread(&FrameServer::RunAcceptor, this);
  return true;
}

void FrameServer::Stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  acceptor_wake_.Notify();
  if (acceptor_thread_.joinable()) acceptor_thread_.join();
  for (const std::shared_ptr<IoLoop>& loop : io_loops_) {
    {
      std::lock_guard<std::mutex> lock(loop->mutex);
      loop->stopping = true;
    }
    loop->wake.Notify();
  }
  for (std::thread& thread : io_threads_) {
    if (thread.joinable()) thread.join();
  }
  io_threads_.clear();
  io_loops_.clear();
  listen_fd_.Reset();
  // A unix listener owns its socket file; leaving it behind would make the
  // path look alive to the next prober.
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

FrameServerStats FrameServer::GetStats() const {
  FrameServerStats s;
  s.connections_accepted = shared_->connections_accepted.load();
  s.connections_rejected = shared_->connections_rejected.load();
  s.connections_closed = shared_->connections_closed.load();
  s.active_connections = shared_->active_connections.load();
  s.frames_received = shared_->frames_received.load();
  s.frames_sent = shared_->frames_sent.load();
  s.transport_errors = shared_->transport_errors.load();
  s.read_throttles = shared_->read_throttles.load();
  s.in_flight = shared_->in_flight.load();
  s.max_in_flight_observed = shared_->max_in_flight.load();
  return s;
}

void FrameServer::RunAcceptor() {
  for (;;) {
    pollfd fds[2];
    fds[0] = {listen_fd_.get(), POLLIN, 0};
    fds[1] = {acceptor_wake_.read_fd(), POLLIN, 0};
    const int rc = ::poll(fds, 2, -1);
    if (stopping_.load()) return;
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & POLLIN) != 0) acceptor_wake_.Drain();
    if ((fds[0].revents & POLLIN) == 0) continue;
    for (;;) {
      const int fd = ::accept(listen_fd_.get(), nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN: accepted everything pending
      }
      common::UniqueFd accepted(fd);
      if (shared_->active_connections.load() >= options_.max_connections) {
        shared_->connections_rejected.fetch_add(1);
        continue;  // UniqueFd closes the socket: hard reject under overload
      }
      std::string nb_error;
      if (!common::SetNonBlocking(accepted.get(), &nb_error)) {
        shared_->connections_rejected.fetch_add(1);
        continue;
      }
      if (address_.kind == common::SocketAddress::Kind::kTcp) {
        const int one = 1;
        ::setsockopt(accepted.get(), IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
      }
      auto conn = std::make_shared<Connection>();
      conn->fd = std::move(accepted);
      conn->loop = io_loops_[next_loop_++ % io_loops_.size()];
      shared_->connections_accepted.fetch_add(1);
      shared_->active_connections.fetch_add(1);
      {
        std::lock_guard<std::mutex> lock(conn->loop->mutex);
        conn->loop->incoming.push_back(conn);
      }
      conn->loop->wake.Notify();
    }
  }
}

void FrameServer::RunIoLoop(const std::shared_ptr<IoLoop>& loop) {
  std::vector<pollfd> fds;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(loop->mutex);
      for (std::shared_ptr<Connection>& conn : loop->incoming) {
        loop->conns.push_back(std::move(conn));
      }
      loop->incoming.clear();
      if (loop->stopping) break;
    }

    fds.clear();
    fds.push_back({loop->wake.read_fd(), POLLIN, 0});
    for (const std::shared_ptr<Connection>& conn : loop->conns) {
      short events = 0;
      // Read interest is dropped at the per-connection in-flight cap: the
      // kernel receive buffer fills and TCP flow control pushes back on
      // the pipelining peer — overload never grows the slot queue past
      // the cap. Each throttle episode is counted once.
      const bool at_cap = AtCap(conn);
      if (at_cap != conn->throttled) {
        if (at_cap) shared_->read_throttles.fetch_add(1);
        conn->throttled = at_cap;
      }
      if (!conn->saw_eof && !at_cap) events |= POLLIN;
      if (HasFlushable(conn)) events |= POLLOUT;
      // A connection with no interest (peer done sending or throttled,
      // responses still being computed) is parked with fd -1: poll ignores
      // it, and the completion's wake pipe nudge resumes it. Without this,
      // the kernel would report POLLHUP every round and spin the loop.
      fds.push_back({events != 0 ? conn->fd.get() : -1, events, 0});
    }
    const int rc = ::poll(fds.data(), fds.size(), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) loop->wake.Drain();

    // Connections with a completed response but no poll event still get a
    // write attempt (the completion woke us via the pipe, not the socket),
    // so every pass tries to flush whatever is flushable.
    std::vector<std::shared_ptr<Connection>> survivors;
    survivors.reserve(loop->conns.size());
    for (size_t i = 0; i < loop->conns.size(); ++i) {
      const std::shared_ptr<Connection>& conn = loop->conns[i];
      const short revents = fds[i + 1].revents;
      bool alive = true;
      if ((revents & (POLLERR | POLLNVAL)) != 0) alive = false;
      // POLLHUP still allows reading buffered bytes; ReadReady sees the EOF
      // once the peer's final bytes are consumed.
      if (alive && !conn->saw_eof &&
          (revents & (POLLIN | POLLHUP)) != 0) {
        alive = ReadReady(conn);
      }
      bool capped = false;
      if (alive) capped = ParseFrames(conn);
      if (alive && HasFlushable(conn)) alive = WriteReady(conn);
      // Flushing may have freed slots below the in-flight cap: resume
      // parsing now instead of waiting for the next event.
      if (alive && capped) capped = ParseFrames(conn);
      if (alive && conn->saw_eof) {
        // The peer finished sending. Once every parseable frame has been
        // submitted (not capped), the connection owes only its pending
        // replies: condemn it so it closes when the outbox drains. A
        // capped connection keeps its unparsed frames and is resumed by
        // completion wakes.
        std::lock_guard<std::mutex> lock(conn->mutex);
        if (!capped && !conn->close_after_flush) {
          conn->inbox.clear();  // trailing partial frame can never complete
          conn->close_after_flush = true;
        }
        if (conn->close_after_flush && conn->outbox.empty()) alive = false;
      }
      if (alive) {
        survivors.push_back(conn);
      } else {
        MarkClosed(conn);
      }
    }
    loop->conns.swap(survivors);
  }
  for (const std::shared_ptr<Connection>& conn : loop->conns) {
    MarkClosed(conn);
  }
  loop->conns.clear();
}

bool FrameServer::ReadReady(const std::shared_ptr<Connection>& conn) {
  for (;;) {
    uint8_t buffer[4096];
    const ssize_t n = ::recv(conn->fd.get(), buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn->inbox.insert(conn->inbox.end(), buffer, buffer + n);
      continue;
    }
    if (n == 0) {
      // Peer finished sending (TCP half-close — a client may send
      // everything, shutdown(WR), then read). The IO pass decides when to
      // condemn the connection: buffered frames may still be waiting for
      // in-flight slots.
      conn->saw_eof = true;
      return true;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;
  }
}

bool FrameServer::AtCap(const std::shared_ptr<Connection>& conn) const {
  std::lock_guard<std::mutex> lock(conn->mutex);
  return conn->outbox.size() >=
         static_cast<size_t>(options_.max_inflight_per_connection);
}

bool FrameServer::ParseFrames(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->close_after_flush) {
      // The stream is already condemned (unframeable length): anything the
      // peer keeps sending is undecodable noise.
      conn->inbox.clear();
      return false;
    }
  }
  size_t offset = 0;
  bool capped = false;
  while (conn->inbox.size() - offset >= kLengthPrefixBytes) {
    if (AtCap(conn)) {
      // In-flight cap: leave the remaining frames buffered. The IO pass
      // re-parses after replies flush, and read interest stays dropped
      // until the queue is below the cap.
      capped = true;
      break;
    }
    const uint32_t length = common::LoadU32Le(conn->inbox.data() + offset);
    if (static_cast<int64_t>(length) > options_.max_frame_bytes) {
      // Unrecoverable: the declared length cannot be trusted, so no later
      // frame boundary can be found. One error frame, then close-on-flush.
      shared_->transport_errors.fetch_add(1);
      auto slot = std::make_shared<Slot>();
      slot->ready = true;
      slot->bytes = WrapFrame(EncodeErrorFrame(
          "transport: declared frame length " + std::to_string(length) +
              " exceeds limit " + std::to_string(options_.max_frame_bytes) +
              "; closing connection",
          ErrorCode::kTransport));
      std::lock_guard<std::mutex> lock(conn->mutex);
      conn->outbox.push_back(std::move(slot));
      conn->close_after_flush = true;
      conn->inbox.clear();
      return false;
    }
    if (conn->inbox.size() - offset < kLengthPrefixBytes + length) break;
    std::vector<uint8_t> frame(
        conn->inbox.begin() + static_cast<ptrdiff_t>(offset +
                                                     kLengthPrefixBytes),
        conn->inbox.begin() + static_cast<ptrdiff_t>(offset +
                                                     kLengthPrefixBytes +
                                                     length));
    offset += kLengthPrefixBytes + length;
    SubmitFrame(conn, std::move(frame));
  }
  conn->inbox.erase(conn->inbox.begin(),
                    conn->inbox.begin() + static_cast<ptrdiff_t>(offset));
  return capped;
}

void FrameServer::SubmitFrame(const std::shared_ptr<Connection>& conn,
                              std::vector<uint8_t> frame) {
  auto slot = std::make_shared<Slot>();
  {
    // The slot is queued BEFORE the submit: even if the continuation runs
    // synchronously (decode error, overload), it finds its place in line.
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->outbox.push_back(slot);
  }
  shared_->frames_received.fetch_add(1);
  BumpMax(shared_->max_in_flight, shared_->in_flight.fetch_add(1) + 1);

  // The continuation owns shared_ptrs to the connection, its loop and the
  // stats block — never the server — so it stays safe to run even after
  // Stop() or ~FrameServer.
  std::shared_ptr<Shared> shared = shared_;
  std::shared_ptr<IoLoop> loop = conn->loop;
  handler_.HandleFrameAsync(
      frame, [conn, slot, loop, shared](std::vector<uint8_t> reply) {
        bool wake = false;
        {
          std::lock_guard<std::mutex> lock(conn->mutex);
          slot->bytes = WrapFrame(reply);
          slot->ready = true;
          wake = !conn->closed;
        }
        shared->in_flight.fetch_sub(1);
        if (wake) loop->wake.Notify();
      });
}

bool FrameServer::HasFlushable(const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(conn->mutex);
  return !conn->outbox.empty() && conn->outbox.front()->ready;
}

bool FrameServer::WriteReady(const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(conn->mutex);
  while (!conn->outbox.empty() && conn->outbox.front()->ready) {
    const Slot& slot = *conn->outbox.front();
    while (conn->front_written < slot.bytes.size()) {
      const ssize_t n = ::send(conn->fd.get(),
                               slot.bytes.data() + conn->front_written,
                               slot.bytes.size() - conn->front_written,
                               MSG_NOSIGNAL);
      if (n > 0) {
        conn->front_written += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;  // kernel buffer full: POLLOUT resumes this slot later
      }
      return false;  // peer is gone
    }
    conn->outbox.pop_front();
    conn->front_written = 0;
    shared_->frames_sent.fetch_add(1);
  }
  return !(conn->close_after_flush && conn->outbox.empty());
}

void FrameServer::MarkClosed(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->closed) return;
    conn->closed = true;
    conn->fd.Reset();
    conn->outbox.clear();
  }
  shared_->connections_closed.fetch_add(1);
  shared_->active_connections.fetch_sub(1);
}

}  // namespace tspn::serve
