#ifndef TSPN_SERVE_FRAME_CLIENT_H_
#define TSPN_SERVE_FRAME_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/net.h"
#include "serve/codec.h"

namespace tspn::serve {

/// Minimal blocking TCP client for the FrameServer transport: each frame
/// travels as a uint32 little-endian length prefix followed by the TSWP
/// frame bytes (docs/wire_protocol.md). Split Send/Recv lets callers
/// pipeline — fire several requests, then collect the replies, which the
/// server returns strictly in request order per connection.
///
/// Blocking by design: this is the convenience side (tests, demos, simple
/// tools). The server side is the one that must never park a thread. A
/// configurable receive timeout (set_recv_timeout_ms) bounds how long any
/// Recv/Call waits, so a client probing an overloaded server cannot hang.
/// Not thread-safe; one FrameClient per thread.
class FrameClient {
 public:
  FrameClient() = default;

  bool Connect(const std::string& host, uint16_t port,
               std::string* error = nullptr);

  /// Transport-generic connect: TCP or unix-domain (the co-located-shard
  /// fast path).
  bool Connect(const common::SocketAddress& address,
               std::string* error = nullptr);

  bool connected() const { return fd_.valid(); }
  void Close() { fd_.Reset(); }

  /// Bounds every subsequent receive: a reply not arriving within this many
  /// milliseconds turns into kTimeout instead of an indefinite block.
  /// <= 0 (the default) waits forever. A timeout that strikes BEFORE any
  /// byte of the frame leaves the connection usable (the reply may still
  /// arrive for a later Recv); one that strikes mid-frame closes it — the
  /// stream can no longer be framed.
  void set_recv_timeout_ms(int64_t timeout_ms) { recv_timeout_ms_ = timeout_ms; }
  int64_t recv_timeout_ms() const { return recv_timeout_ms_; }

  /// Writes one length-delimited frame. False on transport failure (the
  /// connection is closed — a half-written frame is unrecoverable).
  bool SendFrame(const std::vector<uint8_t>& frame);

  /// Blocks for the next length-delimited frame, honouring the receive
  /// timeout. False on timeout, EOF, transport failure, or a declared
  /// length above `max_frame_bytes`.
  bool RecvFrame(std::vector<uint8_t>* frame,
                 int64_t max_frame_bytes = 1 << 20);

  /// How a timed receive ended.
  enum class RecvStatus : uint8_t {
    kOk = 0,
    kTimeout,  ///< deadline struck; connection stays open iff no byte arrived
    kClosed,   ///< EOF or transport failure; connection closed
  };

  /// RecvFrame with the outcome spelled out, for callers that must tell an
  /// overloaded-but-alive server (kTimeout before any byte) from a dead
  /// connection (kClosed).
  RecvStatus RecvFrameTimed(std::vector<uint8_t>* frame,
                            int64_t max_frame_bytes = 1 << 20);

  /// SendFrame + RecvFrame; empty vector on any transport failure.
  std::vector<uint8_t> Call(const std::vector<uint8_t>& request_frame);

  /// A typed reply: what came back, decoded one level — enough for a caller
  /// to branch on shed/error/response without touching the codec.
  struct Reply {
    enum class Kind : uint8_t {
      kResponse = 0,     ///< response (or itinerary-response) frame;
                         ///< `frame` holds it for decoding
      kServerError = 1,  ///< error frame; message/code filled in
      kTimeout = 2,      ///< receive timeout (server alive, reply pending)
      kTransport = 3,    ///< send/recv transport failure or malformed reply
    };
    Kind kind = Kind::kTransport;
    std::vector<uint8_t> frame;  ///< raw reply frame (kResponse/kServerError)
    std::string error_message;   ///< kServerError: the server's message
    ErrorCode error_code = ErrorCode::kGeneric;  ///< kServerError: its code
  };

  /// SendFrame + timed receive + frame-type dispatch: error frames come
  /// back as kServerError with the decoded message and code, so a
  /// caller can distinguish a shed from a bug from a dead socket.
  Reply CallTyped(const std::vector<uint8_t>& request_frame);

  /// The receive half of CallTyped, for pipelining callers: collects and
  /// classifies the next reply for a request already sent with SendFrame.
  Reply ReceiveTyped();

  /// The raw socket, for tests that need to write byte dribbles or tear
  /// the connection down mid-frame.
  int fd() const { return fd_.get(); }

 private:
  /// EINTR-safe full read of `size` bytes, polling against `deadline`
  /// (time_point::max() waits forever). *any_byte reports whether at least
  /// one byte landed — the open-vs-closed decision on timeout.
  RecvStatus ReadTimed(void* data, size_t size,
                       std::chrono::steady_clock::time_point deadline,
                       bool* any_byte);

  common::UniqueFd fd_;
  int64_t recv_timeout_ms_ = 0;
};

}  // namespace tspn::serve

#endif  // TSPN_SERVE_FRAME_CLIENT_H_
