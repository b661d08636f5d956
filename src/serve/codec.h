#ifndef TSPN_SERVE_CODEC_H_
#define TSPN_SERVE_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "eval/recommend.h"
#include "plan/itinerary.h"
#include "serve/admission.h"

namespace tspn::serve {

/// Binary wire protocol for recommendation traffic (docs/wire_protocol.md).
/// Every frame is
///
///   uint32  magic          "TSWP" (0x50575354)
///   uint32  wire version   always kWireVersion
///   uint8   frame type     FrameType
///   uint32  payload bytes  (exactly what follows; nothing may trail it)
///   ...     payload        POD fields via common::ByteWriter/ByteReader
///
/// There is one layout per frame type: a request always carries its
/// admission fields (deadline_ms, priority) and an error frame always
/// carries its ErrorCode. Every encoder writes kWireVersion and every
/// decoder rejects any other version word with kUnsupportedVersion, so all
/// processes that exchange frames are built from the same codec.
///
/// Decoders are strict: truncated buffers, wrong magic, other versions,
/// unknown frame types, payload-length mismatches and trailing garbage are
/// all rejected with a specific DecodeStatus instead of a crash or a
/// partially filled struct (outputs are untouched on failure).
inline constexpr uint32_t kWireMagic = 0x50575354;  // "TSWP"
/// 4 because this is the layout earlier builds emitted as version 4, so
/// they decode every frame this build emits.
inline constexpr uint32_t kWireVersion = 4;

/// Longest endpoint name a request frame may carry. Gateway::Deploy
/// enforces the same cap, so every deployable endpoint is addressable over
/// the wire.
inline constexpr uint32_t kMaxEndpointNameLen = 256;

enum class FrameType : uint8_t {
  kRequest = 1,        ///< endpoint name + eval::RecommendRequest + admission
  kResponse = 2,       ///< eval::RecommendResponse
  kError = 3,          ///< human-readable error message + ErrorCode
  kPing = 4,           ///< health probe: uint64 nonce
  kPong = 5,           ///< ping reply: the echoed nonce
  kStatsRequest = 6,   ///< empty payload: ask for a stats snapshot
  kStatsResponse = 7,  ///< WireStatsSnapshot payload
  kItineraryRequest = 8,   ///< endpoint name + plan::ItineraryRequest
  kItineraryResponse = 9,  ///< plan::ItineraryResponse payload
};

enum class DecodeStatus : uint8_t {
  kOk = 0,
  kTruncated,           ///< buffer ends before the header or payload does
  kBadMagic,            ///< first word is not kWireMagic
  kUnsupportedVersion,  ///< version word is not kWireVersion
  kWrongFrameType,      ///< well-formed frame of a different FrameType
  kMalformedPayload,    ///< payload fields inconsistent or over their limits
  kTrailingGarbage,     ///< bytes remain after the declared payload
};

/// Human-readable status name ("kOk", "kTruncated", ...), for logs/errors.
const char* DecodeStatusName(DecodeStatus status);

/// Machine-readable error classification carried by every error frame, so
/// clients can tell a shed (retry later, lower the rate) from a caller bug
/// (fix the request) without parsing message text.
enum class ErrorCode : uint8_t {
  kGeneric = 0,          ///< unclassified
  kBadFrame = 1,         ///< request frame failed to decode
  kUnknownEndpoint = 2,  ///< no such endpoint deployed
  kInvalidRequest = 3,   ///< decoded fine, but unservable (bad sample index)
  kShedCapacity = 4,     ///< queue full / evicted / degraded-class shed
  kShedDeadline = 5,     ///< deadline cannot plausibly be met; not enqueued
  kExpired = 6,          ///< accepted, but the deadline passed in the queue
  kModelFailure = 7,     ///< the model threw while serving the batch
  kTransport = 8,        ///< transport-level framing violation
  kShardUnavailable = 9, ///< router: every replica for the key is down
  kRateLimited = 10,     ///< router: endpoint token bucket empty
};

/// Highest valid ErrorCode value; anything above it is malformed on the wire.
inline constexpr uint8_t kMaxErrorCode = 10;

const char* ErrorCodeName(ErrorCode code);

/// Peeks at a well-formed frame's type without decoding the payload.
/// Returns kOk and sets *type when the header is valid, the type is a
/// known FrameType and the payload length matches the buffer.
DecodeStatus PeekFrameType(const std::vector<uint8_t>& frame, FrameType* type);

// --- Request frames ----------------------------------------------------------

/// Encodes `request` addressed to the named gateway endpoint, followed by
/// its admission class (deadline_ms, priority; deadline_ms must be
/// non-negative). The name must respect kMaxEndpointNameLen — the encoder
/// does not truncate, so a longer name produces a frame the strict decoder
/// rejects (Gateway::Deploy enforces the same cap, so no deployable
/// endpoint can hit this).
std::vector<uint8_t> EncodeRecommendRequest(
    const std::string& endpoint, const eval::RecommendRequest& request,
    const AdmissionClass& admission = AdmissionClass{});

/// Strict inverse. On kOk, *endpoint and *request hold exactly what was
/// encoded (bit-identical constraints included) and, when non-null,
/// *admission holds the admission class. A negative deadline or an
/// out-of-range priority is malformed.
DecodeStatus DecodeRecommendRequest(const std::vector<uint8_t>& frame,
                                    std::string* endpoint,
                                    eval::RecommendRequest* request,
                                    AdmissionClass* admission = nullptr);

// --- Response frames ---------------------------------------------------------

std::vector<uint8_t> EncodeRecommendResponse(const eval::RecommendResponse& response);

DecodeStatus DecodeRecommendResponse(const std::vector<uint8_t>& frame,
                                     eval::RecommendResponse* response);

// --- Error frames ------------------------------------------------------------

/// What a server returns instead of a response when the request frame is
/// invalid or the endpoint/model fails: a message (truncated to 4096
/// bytes) and its machine-readable classification.
std::vector<uint8_t> EncodeErrorFrame(const std::string& message,
                                      ErrorCode code);

/// Strict inverse; when non-null, *code receives the classification (a
/// code above kMaxErrorCode is malformed).
DecodeStatus DecodeErrorFrame(const std::vector<uint8_t>& frame,
                              std::string* message, ErrorCode* code = nullptr);

// --- Ping frames -------------------------------------------------------------

/// Health probe and its reply. The nonce is chosen by the prober and echoed
/// verbatim, so a pipelining health checker can match pongs to pings.
std::vector<uint8_t> EncodePingFrame(uint64_t nonce);
DecodeStatus DecodePingFrame(const std::vector<uint8_t>& frame,
                             uint64_t* nonce);
std::vector<uint8_t> EncodePongFrame(uint64_t nonce);
DecodeStatus DecodePongFrame(const std::vector<uint8_t>& frame,
                             uint64_t* nonce);

// --- Stats frames ------------------------------------------------------------

/// One endpoint's stats row as it travels on the wire — the subset of
/// serve::EndpointStats a router can aggregate across shards without
/// coupling the codec to the gateway's full stats surface.
struct WireEndpointStats {
  std::string endpoint;
  std::string model_name;
  int64_t queue_depth = 0;
  int64_t lifetime_submitted = 0;
  int64_t lifetime_completed = 0;
  int64_t lifetime_rejected = 0;
  int64_t shed_deadline = 0;
  int64_t shed_capacity = 0;
  int64_t expired_in_queue = 0;
  int64_t degraded = 0;
  int64_t swaps = 0;
  bool degraded_now = false;
  double qps = 0.0;
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
};

/// What a kStatsResponse frame carries: one row per deployed endpoint.
struct WireStatsSnapshot {
  std::vector<WireEndpointStats> endpoints;
};

/// An empty-payload stats probe.
std::vector<uint8_t> EncodeStatsRequest();
DecodeStatus DecodeStatsRequest(const std::vector<uint8_t>& frame);

std::vector<uint8_t> EncodeStatsResponse(const WireStatsSnapshot& snapshot);
DecodeStatus DecodeStatsResponse(const std::vector<uint8_t>& frame,
                                 WireStatsSnapshot* snapshot);

// --- Itinerary frames --------------------------------------------------------

/// Decode caps for itinerary frames: a response may carry at most
/// kMaxItineraryPlans plans of at most plan::kMaxItineraryStops stops each
/// (the planner's own k_stops cap), so a corrupt count can never allocate
/// unboundedly.
inline constexpr uint32_t kMaxItineraryPlans = 64;

/// Encodes a k-stop trip-planning request addressed to the named gateway
/// endpoint. The endpoint cap is kMaxEndpointNameLen, as for
/// recommendation requests.
std::vector<uint8_t> EncodeItineraryRequest(
    const std::string& endpoint, const plan::ItineraryRequest& request);

/// Strict inverse: on kOk, *endpoint and *request hold exactly what was
/// encoded. Out-of-range flag bytes, a search mode other than kBeam, a k_stops
/// outside [0, plan::kMaxItineraryStops] and every header violation are
/// rejected with the usual statuses.
DecodeStatus DecodeItineraryRequest(const std::vector<uint8_t>& frame,
                                    std::string* endpoint,
                                    plan::ItineraryRequest* request);

std::vector<uint8_t> EncodeItineraryResponse(
    const plan::ItineraryResponse& response);

DecodeStatus DecodeItineraryResponse(const std::vector<uint8_t>& frame,
                                     plan::ItineraryResponse* response);

}  // namespace tspn::serve

#endif  // TSPN_SERVE_CODEC_H_
