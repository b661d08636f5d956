#ifndef TSPN_SERVE_ADMISSION_H_
#define TSPN_SERVE_ADMISSION_H_

#include <cstdint>
#include <stdexcept>
#include <string>

namespace tspn::serve {

/// Request priority classes, ordered: a higher value is served first and may
/// evict queued work of a strictly lower class under overload. The wire
/// encoding (serve/codec.h) carries the raw uint8 value, so the numeric
/// assignments are part of the wire contract and must never be reordered.
enum class Priority : uint8_t {
  kBackground = 0,  ///< best-effort (backfills, cache warmers)
  kBulk = 1,        ///< throughput-oriented batch traffic
  kInteractive = 2, ///< user-facing; the default for callers
};

/// Highest valid Priority value; anything above it is malformed on the wire.
inline constexpr uint8_t kMaxPriority = 2;

/// Human-readable class name ("kInteractive", ...), for logs and errors.
const char* PriorityName(Priority priority);

/// Per-request admission parameters, carried by every request frame and by
/// both engine submits. The defaults are the interactive class with no
/// deadline.
struct AdmissionClass {
  /// Relative completion budget in milliseconds, measured from submit.
  /// 0 disables the deadline (the engine may still impose
  /// EngineOptions::default_deadline_ms).
  int64_t deadline_ms = 0;

  Priority priority = Priority::kInteractive;
};

/// Why an accepted-or-offered request was shed instead of served.
enum class ShedReason : uint8_t {
  kNone = 0,
  kDeadlineUnmeetable,  ///< refused at submit: estimated wait exceeds budget
  kCapacity,            ///< refused at submit: queue full, nothing evictable
  kEvicted,             ///< was queued, displaced by higher-priority work
  kExpired,             ///< was queued, deadline passed before a batch slot
  kShutdown,            ///< refused at submit: engine is shutting down
};

const char* ShedReasonName(ShedReason reason);

/// The distinct completion status of a shed request: futures hold it,
/// continuations receive it as their exception_ptr. Callers that care which
/// overload action fired (deadline vs capacity vs expiry) read reason().
class ShedError : public std::runtime_error {
 public:
  ShedError(ShedReason reason, const std::string& message)
      : std::runtime_error(message), reason_(reason) {}

  ShedReason reason() const { return reason_; }

 private:
  ShedReason reason_;
};

}  // namespace tspn::serve

#endif  // TSPN_SERVE_ADMISSION_H_
