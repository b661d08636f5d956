#include "serve/codec.h"

#include "common/binary_io.h"

namespace tspn::serve {

namespace {

/// Sanity caps on variable-length payload fields, so a corrupt count can
/// never turn into a multi-gigabyte allocation. (The endpoint-name cap is
/// kMaxEndpointNameLen in the header — Gateway::Deploy enforces it too.)
constexpr uint32_t kMaxCategories = 1u << 20;
constexpr uint32_t kMaxItems = 1u << 20;
constexpr uint32_t kMaxErrorLen = 4096;
constexpr uint32_t kMaxStatsEndpoints = 4096;

/// Starts a frame, returning the offset of the payload-length field so
/// FinishFrame can back-patch it once the payload size is known.
size_t BeginFrame(common::ByteWriter& w, FrameType type) {
  w.Pod(kWireMagic);
  w.Pod(kWireVersion);
  w.Pod(static_cast<uint8_t>(type));
  const size_t length_offset = w.size();
  w.Pod(static_cast<uint32_t>(0));  // patched by FinishFrame
  return length_offset;
}

void FinishFrame(common::ByteWriter& w, size_t length_offset) {
  w.PatchPod(length_offset,
             static_cast<uint32_t>(w.size() - length_offset - sizeof(uint32_t)));
}

/// Reads and validates the frame header, leaving `reader` positioned at the
/// payload and *type holding the frame type. On kOk the type is a known
/// FrameType and the payload occupies exactly the rest of the buffer
/// (trailing bytes after the declared payload are rejected here;
/// under-consumption within the payload is caught by the callers).
DecodeStatus ReadHeader(common::ByteReader& reader, FrameType* type) {
  uint32_t magic = 0;
  if (!reader.Pod(&magic)) return DecodeStatus::kTruncated;
  if (magic != kWireMagic) return DecodeStatus::kBadMagic;
  uint32_t version = 0;
  if (!reader.Pod(&version)) return DecodeStatus::kTruncated;
  if (version != kWireVersion) return DecodeStatus::kUnsupportedVersion;
  uint8_t raw_type = 0;
  if (!reader.Pod(&raw_type)) return DecodeStatus::kTruncated;
  uint32_t payload_len = 0;
  if (!reader.Pod(&payload_len)) return DecodeStatus::kTruncated;
  if (reader.Remaining() < payload_len) return DecodeStatus::kTruncated;
  if (reader.Remaining() > payload_len) return DecodeStatus::kTrailingGarbage;
  if (raw_type < static_cast<uint8_t>(FrameType::kRequest) ||
      raw_type > static_cast<uint8_t>(FrameType::kItineraryResponse)) {
    return DecodeStatus::kMalformedPayload;
  }
  *type = static_cast<FrameType>(raw_type);
  return DecodeStatus::kOk;
}

/// ReadHeader, then requires the frame to be of type `want`.
DecodeStatus OpenFrame(common::ByteReader& reader, FrameType want) {
  FrameType type = want;
  const DecodeStatus status = ReadHeader(reader, &type);
  if (status != DecodeStatus::kOk) return status;
  return type == want ? DecodeStatus::kOk : DecodeStatus::kWrongFrameType;
}

bool ReadCategoryList(common::ByteReader& reader, std::vector<int32_t>* out) {
  uint32_t count = 0;
  if (!reader.Pod(&count) || count > kMaxCategories) return false;
  // A corrupt count must fail before it allocates: the payload cannot hold
  // more entries than it has bytes left.
  if (static_cast<size_t>(count) * sizeof(int32_t) > reader.Remaining()) {
    return false;
  }
  out->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!reader.Pod(&(*out)[i])) return false;
  }
  return true;
}

void WriteCategoryList(common::ByteWriter& w, const std::vector<int32_t>& list) {
  w.Pod(static_cast<uint32_t>(list.size()));
  for (int32_t cat : list) w.Pod(cat);
}

}  // namespace

const char* DecodeStatusName(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk: return "kOk";
    case DecodeStatus::kTruncated: return "kTruncated";
    case DecodeStatus::kBadMagic: return "kBadMagic";
    case DecodeStatus::kUnsupportedVersion: return "kUnsupportedVersion";
    case DecodeStatus::kWrongFrameType: return "kWrongFrameType";
    case DecodeStatus::kMalformedPayload: return "kMalformedPayload";
    case DecodeStatus::kTrailingGarbage: return "kTrailingGarbage";
  }
  return "kUnknown";
}

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kGeneric: return "kGeneric";
    case ErrorCode::kBadFrame: return "kBadFrame";
    case ErrorCode::kUnknownEndpoint: return "kUnknownEndpoint";
    case ErrorCode::kInvalidRequest: return "kInvalidRequest";
    case ErrorCode::kShedCapacity: return "kShedCapacity";
    case ErrorCode::kShedDeadline: return "kShedDeadline";
    case ErrorCode::kExpired: return "kExpired";
    case ErrorCode::kModelFailure: return "kModelFailure";
    case ErrorCode::kTransport: return "kTransport";
    case ErrorCode::kShardUnavailable: return "kShardUnavailable";
    case ErrorCode::kRateLimited: return "kRateLimited";
  }
  return "kUnknown";
}

DecodeStatus PeekFrameType(const std::vector<uint8_t>& frame, FrameType* type) {
  common::ByteReader reader(frame);
  return ReadHeader(reader, type);
}

std::vector<uint8_t> EncodeRecommendRequest(const std::string& endpoint,
                                            const eval::RecommendRequest& request,
                                            const AdmissionClass& admission) {
  common::ByteWriter w;
  const size_t length_offset = BeginFrame(w, FrameType::kRequest);
  w.String(endpoint);
  w.Pod(request.sample.user);
  w.Pod(request.sample.traj);
  w.Pod(request.sample.prefix_len);
  w.Pod(request.top_n);
  const eval::CandidateConstraints& c = request.constraints;
  w.Pod(c.geo_center.lat);
  w.Pod(c.geo_center.lon);
  w.Pod(c.geo_radius_km);
  WriteCategoryList(w, c.allowed_categories);
  WriteCategoryList(w, c.blocked_categories);
  w.Pod(static_cast<uint8_t>(c.exclude_visited ? 1 : 0));
  w.Pod(c.open_at);
  w.Pod(c.min_open_weight);
  w.Pod(admission.deadline_ms);
  w.Pod(static_cast<uint8_t>(admission.priority));
  FinishFrame(w, length_offset);
  return w.Take();
}

DecodeStatus DecodeRecommendRequest(const std::vector<uint8_t>& frame,
                                    std::string* endpoint,
                                    eval::RecommendRequest* request,
                                    AdmissionClass* admission) {
  common::ByteReader reader(frame);
  const DecodeStatus header = OpenFrame(reader, FrameType::kRequest);
  if (header != DecodeStatus::kOk) return header;

  std::string name;
  eval::RecommendRequest decoded;
  if (!reader.String(&name, kMaxEndpointNameLen)) {
    return DecodeStatus::kMalformedPayload;
  }
  eval::CandidateConstraints& c = decoded.constraints;
  AdmissionClass decoded_admission;
  uint8_t exclude_visited = 0;
  uint8_t priority = 0;
  const bool ok = reader.Pod(&decoded.sample.user) &&
                  reader.Pod(&decoded.sample.traj) &&
                  reader.Pod(&decoded.sample.prefix_len) &&
                  reader.Pod(&decoded.top_n) && reader.Pod(&c.geo_center.lat) &&
                  reader.Pod(&c.geo_center.lon) && reader.Pod(&c.geo_radius_km) &&
                  ReadCategoryList(reader, &c.allowed_categories) &&
                  ReadCategoryList(reader, &c.blocked_categories) &&
                  reader.Pod(&exclude_visited) && reader.Pod(&c.open_at) &&
                  reader.Pod(&c.min_open_weight) &&
                  reader.Pod(&decoded_admission.deadline_ms) &&
                  reader.Pod(&priority);
  if (!ok) return DecodeStatus::kMalformedPayload;
  if (exclude_visited > 1 || decoded_admission.deadline_ms < 0 ||
      priority > kMaxPriority) {
    return DecodeStatus::kMalformedPayload;
  }
  c.exclude_visited = exclude_visited == 1;
  decoded_admission.priority = static_cast<Priority>(priority);
  if (reader.Remaining() != 0) return DecodeStatus::kTrailingGarbage;

  *endpoint = std::move(name);
  *request = std::move(decoded);
  if (admission != nullptr) *admission = decoded_admission;
  return DecodeStatus::kOk;
}

std::vector<uint8_t> EncodeRecommendResponse(const eval::RecommendResponse& response) {
  common::ByteWriter w;
  const size_t length_offset = BeginFrame(w, FrameType::kResponse);
  w.Pod(static_cast<uint32_t>(response.items.size()));
  for (const eval::ScoredPoi& item : response.items) {
    w.Pod(item.poi_id);
    w.Pod(item.score);
    w.Pod(item.tile_index);
  }
  w.Pod(response.stages_used);
  w.Pod(response.tiles_screened);
  FinishFrame(w, length_offset);
  return w.Take();
}

DecodeStatus DecodeRecommendResponse(const std::vector<uint8_t>& frame,
                                     eval::RecommendResponse* response) {
  common::ByteReader reader(frame);
  const DecodeStatus header = OpenFrame(reader, FrameType::kResponse);
  if (header != DecodeStatus::kOk) return header;

  eval::RecommendResponse decoded;
  uint32_t count = 0;
  if (!reader.Pod(&count) || count > kMaxItems) {
    return DecodeStatus::kMalformedPayload;
  }
  // Bytes-remaining check before the allocation, so a corrupt count in a
  // tiny frame cannot trigger a multi-megabyte resize.
  constexpr size_t kItemBytes =
      sizeof(int64_t) + sizeof(float) + sizeof(int64_t);
  if (static_cast<size_t>(count) * kItemBytes > reader.Remaining()) {
    return DecodeStatus::kMalformedPayload;
  }
  decoded.items.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    eval::ScoredPoi& item = decoded.items[i];
    if (!reader.Pod(&item.poi_id) || !reader.Pod(&item.score) ||
        !reader.Pod(&item.tile_index)) {
      return DecodeStatus::kMalformedPayload;
    }
  }
  if (!reader.Pod(&decoded.stages_used) || !reader.Pod(&decoded.tiles_screened)) {
    return DecodeStatus::kMalformedPayload;
  }
  if (reader.Remaining() != 0) return DecodeStatus::kTrailingGarbage;

  *response = std::move(decoded);
  return DecodeStatus::kOk;
}

std::vector<uint8_t> EncodeErrorFrame(const std::string& message,
                                      ErrorCode code) {
  common::ByteWriter w;
  const size_t length_offset = BeginFrame(w, FrameType::kError);
  w.String(message.size() > kMaxErrorLen ? message.substr(0, kMaxErrorLen)
                                         : message);
  w.Pod(static_cast<uint8_t>(code));
  FinishFrame(w, length_offset);
  return w.Take();
}

DecodeStatus DecodeErrorFrame(const std::vector<uint8_t>& frame,
                              std::string* message, ErrorCode* code) {
  common::ByteReader reader(frame);
  const DecodeStatus header = OpenFrame(reader, FrameType::kError);
  if (header != DecodeStatus::kOk) return header;
  std::string decoded;
  uint8_t raw = 0;
  if (!reader.String(&decoded, kMaxErrorLen) || !reader.Pod(&raw) ||
      raw > kMaxErrorCode) {
    return DecodeStatus::kMalformedPayload;
  }
  if (reader.Remaining() != 0) return DecodeStatus::kTrailingGarbage;
  *message = std::move(decoded);
  if (code != nullptr) *code = static_cast<ErrorCode>(raw);
  return DecodeStatus::kOk;
}

namespace {

/// Shared body of the two nonce-echo frames.
std::vector<uint8_t> EncodeNonceFrame(FrameType type, uint64_t nonce) {
  common::ByteWriter w;
  const size_t length_offset = BeginFrame(w, type);
  w.Pod(nonce);
  FinishFrame(w, length_offset);
  return w.Take();
}

DecodeStatus DecodeNonceFrame(const std::vector<uint8_t>& frame,
                              FrameType want, uint64_t* nonce) {
  common::ByteReader reader(frame);
  const DecodeStatus header = OpenFrame(reader, want);
  if (header != DecodeStatus::kOk) return header;
  uint64_t decoded = 0;
  if (!reader.Pod(&decoded)) return DecodeStatus::kMalformedPayload;
  if (reader.Remaining() != 0) return DecodeStatus::kTrailingGarbage;
  *nonce = decoded;
  return DecodeStatus::kOk;
}

}  // namespace

std::vector<uint8_t> EncodePingFrame(uint64_t nonce) {
  return EncodeNonceFrame(FrameType::kPing, nonce);
}

DecodeStatus DecodePingFrame(const std::vector<uint8_t>& frame,
                             uint64_t* nonce) {
  return DecodeNonceFrame(frame, FrameType::kPing, nonce);
}

std::vector<uint8_t> EncodePongFrame(uint64_t nonce) {
  return EncodeNonceFrame(FrameType::kPong, nonce);
}

DecodeStatus DecodePongFrame(const std::vector<uint8_t>& frame,
                             uint64_t* nonce) {
  return DecodeNonceFrame(frame, FrameType::kPong, nonce);
}

std::vector<uint8_t> EncodeStatsRequest() {
  common::ByteWriter w;
  const size_t length_offset = BeginFrame(w, FrameType::kStatsRequest);
  FinishFrame(w, length_offset);
  return w.Take();
}

DecodeStatus DecodeStatsRequest(const std::vector<uint8_t>& frame) {
  common::ByteReader reader(frame);
  const DecodeStatus header = OpenFrame(reader, FrameType::kStatsRequest);
  if (header != DecodeStatus::kOk) return header;
  if (reader.Remaining() != 0) return DecodeStatus::kTrailingGarbage;
  return DecodeStatus::kOk;
}

std::vector<uint8_t> EncodeStatsResponse(const WireStatsSnapshot& snapshot) {
  common::ByteWriter w;
  const size_t length_offset = BeginFrame(w, FrameType::kStatsResponse);
  w.Pod(static_cast<uint32_t>(snapshot.endpoints.size()));
  for (const WireEndpointStats& e : snapshot.endpoints) {
    w.String(e.endpoint);
    w.String(e.model_name);
    w.Pod(e.queue_depth);
    w.Pod(e.lifetime_submitted);
    w.Pod(e.lifetime_completed);
    w.Pod(e.lifetime_rejected);
    w.Pod(e.shed_deadline);
    w.Pod(e.shed_capacity);
    w.Pod(e.expired_in_queue);
    w.Pod(e.degraded);
    w.Pod(e.swaps);
    w.Pod(static_cast<uint8_t>(e.degraded_now ? 1 : 0));
    w.Pod(e.qps);
    w.Pod(e.p50_latency_ms);
    w.Pod(e.p95_latency_ms);
  }
  FinishFrame(w, length_offset);
  return w.Take();
}

std::vector<uint8_t> EncodeItineraryRequest(
    const std::string& endpoint, const plan::ItineraryRequest& request) {
  common::ByteWriter w;
  const size_t length_offset = BeginFrame(w, FrameType::kItineraryRequest);
  w.String(endpoint);
  w.Pod(request.start.user);
  w.Pod(request.start.traj);
  w.Pod(request.start.prefix_len);
  w.Pod(request.k_stops);
  w.Pod(request.time_budget_hours);
  w.Pod(request.travel_speed_kmh);
  w.Pod(request.dwell_hours);
  w.Pod(request.start_time);
  w.Pod(static_cast<uint8_t>(request.return_to_start ? 1 : 0));
  w.Pod(request.max_stops_per_category);
  w.Pod(static_cast<uint8_t>(request.enforce_open_hours ? 1 : 0));
  w.Pod(static_cast<uint8_t>(request.mode));
  const eval::CandidateConstraints& c = request.constraints;
  w.Pod(c.geo_center.lat);
  w.Pod(c.geo_center.lon);
  w.Pod(c.geo_radius_km);
  WriteCategoryList(w, c.allowed_categories);
  WriteCategoryList(w, c.blocked_categories);
  w.Pod(static_cast<uint8_t>(c.exclude_visited ? 1 : 0));
  w.Pod(c.open_at);
  w.Pod(c.min_open_weight);
  FinishFrame(w, length_offset);
  return w.Take();
}

DecodeStatus DecodeItineraryRequest(const std::vector<uint8_t>& frame,
                                    std::string* endpoint,
                                    plan::ItineraryRequest* request) {
  common::ByteReader reader(frame);
  const DecodeStatus header = OpenFrame(reader, FrameType::kItineraryRequest);
  if (header != DecodeStatus::kOk) return header;

  std::string name;
  plan::ItineraryRequest decoded;
  if (!reader.String(&name, kMaxEndpointNameLen)) {
    return DecodeStatus::kMalformedPayload;
  }
  eval::CandidateConstraints& c = decoded.constraints;
  uint8_t return_to_start = 0;
  uint8_t enforce_open_hours = 0;
  uint8_t mode = 0;
  uint8_t exclude_visited = 0;
  const bool ok =
      reader.Pod(&decoded.start.user) && reader.Pod(&decoded.start.traj) &&
      reader.Pod(&decoded.start.prefix_len) && reader.Pod(&decoded.k_stops) &&
      reader.Pod(&decoded.time_budget_hours) &&
      reader.Pod(&decoded.travel_speed_kmh) &&
      reader.Pod(&decoded.dwell_hours) && reader.Pod(&decoded.start_time) &&
      reader.Pod(&return_to_start) &&
      reader.Pod(&decoded.max_stops_per_category) &&
      reader.Pod(&enforce_open_hours) && reader.Pod(&mode) &&
      reader.Pod(&c.geo_center.lat) && reader.Pod(&c.geo_center.lon) &&
      reader.Pod(&c.geo_radius_km) &&
      ReadCategoryList(reader, &c.allowed_categories) &&
      ReadCategoryList(reader, &c.blocked_categories) &&
      reader.Pod(&exclude_visited) && reader.Pod(&c.open_at) &&
      reader.Pod(&c.min_open_weight);
  if (!ok) return DecodeStatus::kMalformedPayload;
  if (return_to_start > 1 || enforce_open_hours > 1 || exclude_visited > 1 ||
      mode != static_cast<uint8_t>(plan::SearchMode::kBeam)) {
    return DecodeStatus::kMalformedPayload;
  }
  // The planner's own stop cap doubles as the wire cap, so no well-formed
  // frame can make a decoder-side server search an unbounded tree.
  if (decoded.k_stops < 0 || decoded.k_stops > plan::kMaxItineraryStops) {
    return DecodeStatus::kMalformedPayload;
  }
  decoded.return_to_start = return_to_start == 1;
  decoded.enforce_open_hours = enforce_open_hours == 1;
  decoded.mode = static_cast<plan::SearchMode>(mode);
  c.exclude_visited = exclude_visited == 1;
  if (reader.Remaining() != 0) return DecodeStatus::kTrailingGarbage;

  *endpoint = std::move(name);
  *request = std::move(decoded);
  return DecodeStatus::kOk;
}

std::vector<uint8_t> EncodeItineraryResponse(
    const plan::ItineraryResponse& response) {
  common::ByteWriter w;
  const size_t length_offset = BeginFrame(w, FrameType::kItineraryResponse);
  w.Pod(static_cast<uint32_t>(response.plans.size()));
  for (const plan::ItineraryPlan& plan : response.plans) {
    w.Pod(static_cast<uint32_t>(plan.stops.size()));
    for (const plan::ItineraryStop& stop : plan.stops) {
      w.Pod(stop.poi_id);
      w.Pod(stop.model_score);
      w.Pod(stop.arrive_hours);
      w.Pod(stop.depart_hours);
      w.Pod(stop.travel_km);
    }
    w.Pod(plan.total_score);
    w.Pod(plan.total_hours);
    w.Pod(plan.total_km);
  }
  w.Pod(response.expansions);
  w.Pod(response.rollouts_scored);
  FinishFrame(w, length_offset);
  return w.Take();
}

DecodeStatus DecodeItineraryResponse(const std::vector<uint8_t>& frame,
                                     plan::ItineraryResponse* response) {
  common::ByteReader reader(frame);
  const DecodeStatus header = OpenFrame(reader, FrameType::kItineraryResponse);
  if (header != DecodeStatus::kOk) return header;

  plan::ItineraryResponse decoded;
  uint32_t plan_count = 0;
  if (!reader.Pod(&plan_count) || plan_count > kMaxItineraryPlans) {
    return DecodeStatus::kMalformedPayload;
  }
  // Bytes-remaining check before the allocation: an empty plan is its stop
  // count plus the three totals.
  constexpr size_t kMinPlanBytes = sizeof(uint32_t) + 3 * sizeof(double);
  if (static_cast<size_t>(plan_count) * kMinPlanBytes > reader.Remaining()) {
    return DecodeStatus::kMalformedPayload;
  }
  decoded.plans.resize(plan_count);
  constexpr size_t kStopBytes =
      sizeof(int64_t) + sizeof(float) + 3 * sizeof(double);
  for (uint32_t p = 0; p < plan_count; ++p) {
    plan::ItineraryPlan& plan = decoded.plans[p];
    uint32_t stop_count = 0;
    if (!reader.Pod(&stop_count) ||
        stop_count > static_cast<uint32_t>(plan::kMaxItineraryStops)) {
      return DecodeStatus::kMalformedPayload;
    }
    // Bytes-remaining check before the allocation, as for response items.
    if (static_cast<size_t>(stop_count) * kStopBytes > reader.Remaining()) {
      return DecodeStatus::kMalformedPayload;
    }
    plan.stops.resize(stop_count);
    for (uint32_t s = 0; s < stop_count; ++s) {
      plan::ItineraryStop& stop = plan.stops[s];
      if (!reader.Pod(&stop.poi_id) || !reader.Pod(&stop.model_score) ||
          !reader.Pod(&stop.arrive_hours) || !reader.Pod(&stop.depart_hours) ||
          !reader.Pod(&stop.travel_km)) {
        return DecodeStatus::kMalformedPayload;
      }
    }
    if (!reader.Pod(&plan.total_score) || !reader.Pod(&plan.total_hours) ||
        !reader.Pod(&plan.total_km)) {
      return DecodeStatus::kMalformedPayload;
    }
  }
  if (!reader.Pod(&decoded.expansions) ||
      !reader.Pod(&decoded.rollouts_scored)) {
    return DecodeStatus::kMalformedPayload;
  }
  if (reader.Remaining() != 0) return DecodeStatus::kTrailingGarbage;

  *response = std::move(decoded);
  return DecodeStatus::kOk;
}

DecodeStatus DecodeStatsResponse(const std::vector<uint8_t>& frame,
                                 WireStatsSnapshot* snapshot) {
  common::ByteReader reader(frame);
  const DecodeStatus header = OpenFrame(reader, FrameType::kStatsResponse);
  if (header != DecodeStatus::kOk) return header;
  uint32_t count = 0;
  if (!reader.Pod(&count) || count > kMaxStatsEndpoints) {
    return DecodeStatus::kMalformedPayload;
  }
  // Bytes-remaining check before the allocation: a row with two empty
  // strings is two length prefixes, nine int64s, a flag and three doubles.
  constexpr size_t kMinRowBytes = 2 * sizeof(uint32_t) + 9 * sizeof(int64_t) +
                                  sizeof(uint8_t) + 3 * sizeof(double);
  if (static_cast<size_t>(count) * kMinRowBytes > reader.Remaining()) {
    return DecodeStatus::kMalformedPayload;
  }
  WireStatsSnapshot decoded;
  decoded.endpoints.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    WireEndpointStats& e = decoded.endpoints[i];
    uint8_t degraded_now = 0;
    const bool ok = reader.String(&e.endpoint, kMaxEndpointNameLen) &&
                    reader.String(&e.model_name, kMaxEndpointNameLen) &&
                    reader.Pod(&e.queue_depth) &&
                    reader.Pod(&e.lifetime_submitted) &&
                    reader.Pod(&e.lifetime_completed) &&
                    reader.Pod(&e.lifetime_rejected) &&
                    reader.Pod(&e.shed_deadline) &&
                    reader.Pod(&e.shed_capacity) &&
                    reader.Pod(&e.expired_in_queue) &&
                    reader.Pod(&e.degraded) && reader.Pod(&e.swaps) &&
                    reader.Pod(&degraded_now) && reader.Pod(&e.qps) &&
                    reader.Pod(&e.p50_latency_ms) &&
                    reader.Pod(&e.p95_latency_ms);
    if (!ok || degraded_now > 1) return DecodeStatus::kMalformedPayload;
    e.degraded_now = degraded_now == 1;
  }
  if (reader.Remaining() != 0) return DecodeStatus::kTrailingGarbage;
  *snapshot = std::move(decoded);
  return DecodeStatus::kOk;
}

}  // namespace tspn::serve
