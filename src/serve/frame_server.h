#ifndef TSPN_SERVE_FRAME_SERVER_H_
#define TSPN_SERVE_FRAME_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/net.h"
#include "serve/frame_handler.h"

namespace tspn::serve {

/// Tuning for FrameServer, set by the caller in code.
struct FrameServerOptions {
  /// Dotted-quad IPv4 listen address; defaults to loopback. Use "0.0.0.0"
  /// to accept from the network.
  std::string host = "127.0.0.1";

  /// TCP port; 0 binds an ephemeral port, readable via port() after Start.
  uint16_t port = 0;

  /// Non-empty switches the listener to a unix-domain socket at this path
  /// (host/port are then ignored) — the co-located fast path cluster shards
  /// ride. The server unlinks the path on Stop.
  std::string unix_path;

  int io_threads = 2;                 ///< poll-loop IO threads
  int64_t max_frame_bytes = 1 << 20;  ///< largest accepted frame
  int64_t max_connections = 256;      ///< concurrent connection cap

  /// Most response slots one connection may hold (requests submitted or
  /// queued-for-reply). At the cap the server stops parsing new frames off
  /// that connection and drops its read interest, so a client pipelining
  /// faster than the engine serves is held back by TCP flow control instead
  /// of growing the slot queue without bound. Replies flushing below the
  /// cap resume parsing and reading on the same IO pass.
  int64_t max_inflight_per_connection = 64;
};

/// Point-in-time FrameServer counters. `max_in_flight_observed` is the
/// high-water mark of frames decoded-and-submitted whose responses had not
/// yet been produced — with io_threads + engine workers well below it, it
/// is the observable proof that no thread is parked per in-flight request.
struct FrameServerStats {
  int64_t connections_accepted = 0;
  int64_t connections_rejected = 0;  ///< over max_connections
  int64_t connections_closed = 0;
  int64_t active_connections = 0;
  int64_t frames_received = 0;  ///< complete request frames parsed
  int64_t frames_sent = 0;      ///< reply frames fully written
  int64_t transport_errors = 0; ///< framing violations (oversized length)
  int64_t read_throttles = 0;   ///< connections hitting the in-flight cap
  int64_t in_flight = 0;
  int64_t max_in_flight_observed = 0;
};

/// TCP front-end for the gateway's TSWP wire protocol — the piece that
/// turns the codec from a seam into a network service.
///
/// Transport framing: each direction is a sequence of length-delimited
/// frames — a uint32 little-endian byte count, then exactly that many bytes
/// of one TSWP frame (docs/wire_protocol.md). A declared length above
/// max_frame_bytes is unrecoverable (the stream can no longer be framed):
/// the server replies with one error frame and closes the connection after
/// flushing. Anything else that goes wrong inside a well-delimited frame —
/// bad magic, unknown endpoint, overloaded queue, model failure — comes
/// back as an ordinary error frame on a healthy connection.
///
/// Threading model (docs/serving.md): one acceptor thread (blocking poll on
/// the listen socket, round-robins new connections across the IO pool) and
/// `io_threads` poll-based event-loop threads, each owning a shard of
/// connections. An IO thread reads bytes, extracts complete frames, and
/// hands each to FrameHandler::HandleFrameAsync — the request then lives in
/// the endpoint engine's queue and NO thread waits on it. When a serving
/// worker completes the request, its continuation deposits the encoded
/// reply into the connection's response slot and wakes the owning IO
/// thread, which writes replies back strictly in per-connection request
/// order (a completed frame waits for its elders), handling partial writes
/// across poll rounds.
///
/// Lifecycle: construct over a FrameHandler — a Gateway for the
/// single-process shape, a cluster::ShardRouter for the router tier; the
/// handler must outlive the server — then Start(), serve, Stop() —
/// idempotent, also run by the destructor. Stop closes every connection;
/// responses still in flight inside engines are discarded on completion
/// (their continuations see the closed flag).
class FrameServer {
 public:
  explicit FrameServer(FrameHandler& handler,
                       FrameServerOptions options = {});
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds, listens and spawns the acceptor + IO threads. False with
  /// *error set when the socket cannot be stood up (port in use, bad host)
  /// or io_threads is below 1.
  bool Start(std::string* error = nullptr);

  /// Stops accepting, closes every connection, joins all threads.
  /// Idempotent. In-flight requests keep draining inside their engines;
  /// their replies are discarded.
  void Stop();

  /// The bound port (== options().port unless that was 0 = ephemeral);
  /// 0 for a unix-domain listener. Valid after a successful Start().
  uint16_t port() const { return port_; }

  /// The bound listen address (either kind), valid after a successful
  /// Start() — what a FrameClient passes to Connect.
  const common::SocketAddress& address() const { return address_; }

  bool running() const { return running_; }

  FrameServerStats GetStats() const;

  const FrameServerOptions& options() const { return options_; }

 private:
  /// One response slot per request frame, queued in arrival order. The
  /// serving continuation fills it; the IO thread flushes slots strictly
  /// front-to-back, so responses keep per-connection request order however
  /// the engine reorders completions.
  struct Slot {
    bool ready = false;
    std::vector<uint8_t> bytes;  ///< outer length prefix + reply frame
  };

  struct IoLoop;

  /// Per-connection state. Owned by exactly one IoLoop; also pinned by
  /// in-flight serving continuations, so it outlives the socket when the
  /// peer disappears mid-request.
  struct Connection {
    common::UniqueFd fd;
    std::shared_ptr<IoLoop> loop;

    // IO-thread-only read state. saw_eof parks POLLIN interest once the
    // peer finished sending (half-close), so a drained socket cannot spin
    // the poll loop while responses are still being computed. throttled
    // tracks the in-flight-cap state so each throttle episode is counted
    // once.
    std::vector<uint8_t> inbox;
    bool saw_eof = false;
    bool throttled = false;

    std::mutex mutex;  ///< guards everything below
    std::deque<std::shared_ptr<Slot>> outbox;
    size_t front_written = 0;  ///< bytes of outbox.front() already sent
    bool close_after_flush = false;
    bool closed = false;  ///< set once the IO thread drops the connection
  };

  /// Cross-thread stats + config block. Held via shared_ptr by the server
  /// AND by every serving continuation, so a continuation completing after
  /// Stop() (or even after the server is destroyed) still has a live target.
  struct Shared {
    FrameServerOptions options;
    std::atomic<int64_t> connections_accepted{0};
    std::atomic<int64_t> connections_rejected{0};
    std::atomic<int64_t> connections_closed{0};
    std::atomic<int64_t> active_connections{0};
    std::atomic<int64_t> frames_received{0};
    std::atomic<int64_t> frames_sent{0};
    std::atomic<int64_t> transport_errors{0};
    std::atomic<int64_t> read_throttles{0};
    std::atomic<int64_t> in_flight{0};
    std::atomic<int64_t> max_in_flight{0};
  };

  void RunAcceptor();
  void RunIoLoop(const std::shared_ptr<IoLoop>& loop);

  /// Drains the socket into the inbox. Sets saw_eof when the peer finished
  /// sending; false only when the connection must be dropped (hard error).
  /// Parsing happens separately in the IO pass, so a read never submits
  /// past the in-flight cap.
  bool ReadReady(const std::shared_ptr<Connection>& conn);

  /// Parses complete length-delimited frames out of the inbox and submits
  /// them, stopping at the per-connection in-flight cap. Returns true when
  /// it stopped because of the cap (unparsed frames remain); flags
  /// close_after_flush on an unframeable stream.
  bool ParseFrames(const std::shared_ptr<Connection>& conn);

  /// Whether the connection's slot queue is at the in-flight cap (read
  /// interest must be dropped).
  bool AtCap(const std::shared_ptr<Connection>& conn) const;

  /// Decodes/submits one TSWP frame, reserving its in-order response slot.
  void SubmitFrame(const std::shared_ptr<Connection>& conn,
                   std::vector<uint8_t> frame);

  /// Flushes ready in-order slots. False when the connection must close
  /// (write error, or close_after_flush with everything flushed).
  bool WriteReady(const std::shared_ptr<Connection>& conn);

  /// Whether the front slot has unflushed bytes ready (POLLOUT interest).
  static bool HasFlushable(const std::shared_ptr<Connection>& conn);

  void MarkClosed(const std::shared_ptr<Connection>& conn);

  FrameHandler& handler_;
  const FrameServerOptions options_;
  std::shared_ptr<Shared> shared_;

  common::UniqueFd listen_fd_;
  uint16_t port_ = 0;
  common::SocketAddress address_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  common::WakePipe acceptor_wake_;
  std::thread acceptor_thread_;
  std::vector<std::shared_ptr<IoLoop>> io_loops_;
  std::vector<std::thread> io_threads_;
  size_t next_loop_ = 0;  ///< acceptor-thread-only round-robin cursor
};

}  // namespace tspn::serve

#endif  // TSPN_SERVE_FRAME_SERVER_H_
