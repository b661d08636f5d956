#include "serve/frame_client.h"

#include <cerrno>
#include <poll.h>
#include <sys/socket.h>

namespace tspn::serve {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

bool FrameClient::Connect(const std::string& host, uint16_t port,
                          std::string* error) {
  return Connect(common::SocketAddress::Tcp(host, port), error);
}

bool FrameClient::Connect(const common::SocketAddress& address,
                          std::string* error) {
  fd_ = common::ConnectTo(address, error);
  return fd_.valid();
}

bool FrameClient::SendFrame(const std::vector<uint8_t>& frame) {
  if (!fd_.valid()) return false;
  uint8_t prefix[4];
  common::StoreU32Le(static_cast<uint32_t>(frame.size()), prefix);
  if (common::WriteAll(fd_.get(), prefix, sizeof(prefix)) &&
      common::WriteAll(fd_.get(), frame.data(), frame.size())) {
    return true;
  }
  Close();
  return false;
}

FrameClient::RecvStatus FrameClient::ReadTimed(void* data, size_t size,
                                               Clock::time_point deadline,
                                               bool* any_byte) {
  uint8_t* out = static_cast<uint8_t*>(data);
  size_t done = 0;
  while (done < size) {
    if (deadline != Clock::time_point::max()) {
      const auto now = Clock::now();
      if (now >= deadline) return RecvStatus::kTimeout;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - now);
      // +1 rounds up so a sub-millisecond remainder still polls, instead
      // of spinning with timeout 0 until the clock catches up.
      pollfd pfd{fd_.get(), POLLIN, 0};
      const int rc =
          ::poll(&pfd, 1, static_cast<int>(left.count()) + 1);
      if (rc < 0) {
        if (errno == EINTR) continue;
        return RecvStatus::kClosed;
      }
      if (rc == 0) return RecvStatus::kTimeout;
    }
    const ssize_t n = ::recv(fd_.get(), out + done, size - done, 0);
    if (n > 0) {
      done += static_cast<size_t>(n);
      *any_byte = true;
      continue;
    }
    if (n == 0) return RecvStatus::kClosed;
    if (errno == EINTR) continue;
    // Without a deadline the socket is blocking and EAGAIN cannot happen;
    // with one, poll said readable, so EAGAIN here is a spurious wakeup —
    // loop and poll again.
    if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return RecvStatus::kClosed;
  }
  return RecvStatus::kOk;
}

FrameClient::RecvStatus FrameClient::RecvFrameTimed(std::vector<uint8_t>* frame,
                                                    int64_t max_frame_bytes) {
  if (!fd_.valid()) return RecvStatus::kClosed;
  const Clock::time_point deadline =
      recv_timeout_ms_ > 0
          ? Clock::now() + std::chrono::milliseconds(recv_timeout_ms_)
          : Clock::time_point::max();
  bool any_byte = false;
  uint8_t prefix[4];
  RecvStatus status = ReadTimed(prefix, sizeof(prefix), deadline, &any_byte);
  if (status != RecvStatus::kOk) {
    // A timeout before the first byte leaves a framable stream: the reply
    // simply has not arrived, and a later Recv can still collect it. Any
    // other outcome loses frame alignment, so the connection closes.
    if (status == RecvStatus::kTimeout && !any_byte) return status;
    Close();
    return status;
  }
  const uint32_t length = common::LoadU32Le(prefix);
  if (static_cast<int64_t>(length) > max_frame_bytes) {
    Close();
    return RecvStatus::kClosed;
  }
  frame->resize(length);
  if (length > 0) {
    status = ReadTimed(frame->data(), length, deadline, &any_byte);
    if (status != RecvStatus::kOk) {
      Close();  // mid-frame: unrecoverable either way
      return status;
    }
  }
  return RecvStatus::kOk;
}

bool FrameClient::RecvFrame(std::vector<uint8_t>* frame,
                            int64_t max_frame_bytes) {
  return RecvFrameTimed(frame, max_frame_bytes) == RecvStatus::kOk;
}

std::vector<uint8_t> FrameClient::Call(
    const std::vector<uint8_t>& request_frame) {
  std::vector<uint8_t> reply;
  if (!SendFrame(request_frame) || !RecvFrame(&reply)) reply.clear();
  return reply;
}

FrameClient::Reply FrameClient::CallTyped(
    const std::vector<uint8_t>& request_frame) {
  if (!SendFrame(request_frame)) return Reply{};  // kTransport
  return ReceiveTyped();
}

FrameClient::Reply FrameClient::ReceiveTyped() {
  Reply reply;
  std::vector<uint8_t> frame;
  const RecvStatus status = RecvFrameTimed(&frame);
  if (status == RecvStatus::kTimeout) {
    reply.kind = Reply::Kind::kTimeout;
    return reply;
  }
  if (status != RecvStatus::kOk) return reply;  // kTransport
  FrameType type;
  if (PeekFrameType(frame, &type) != DecodeStatus::kOk) return reply;
  if (type == FrameType::kError) {
    if (DecodeErrorFrame(frame, &reply.error_message, &reply.error_code) !=
        DecodeStatus::kOk) {
      return reply;  // malformed error frame: kTransport
    }
    reply.kind = Reply::Kind::kServerError;
    reply.frame = std::move(frame);
    return reply;
  }
  // Both reply-shaped frame types are successful replies.
  if (type != FrameType::kResponse && type != FrameType::kItineraryResponse) {
    return reply;
  }
  reply.kind = Reply::Kind::kResponse;
  reply.frame = std::move(frame);
  return reply;
}

}  // namespace tspn::serve
