// Wire-codec tests: round-trips must be bit-exact for every
// CandidateConstraints field combination and every frame type, and every
// corruption mode — truncation at any length, bad magic, any version word
// but kWireVersion, wrong frame type, malformed payload counts, trailing
// garbage — must be rejected with the right DecodeStatus, without crashing
// and without touching the outputs.

#include "serve/codec.h"

#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>

#include <gtest/gtest.h>

namespace {
/// operator new calls made by this thread, so a test can assert that a
/// decoder refused a corrupt count without allocating for it.
thread_local int64_t allocations_on_this_thread = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++allocations_on_this_thread;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line: inlined into a caller, the free() would pair visibly with an
// operator new call and trip -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace tspn::serve {
namespace {

/// One representative value per constraint axis; combined by bitmask below.
eval::CandidateConstraints ConstraintsFor(unsigned mask) {
  eval::CandidateConstraints c;
  if (mask & 1u) {
    c.geo_center = {40.75, -73.99};
    c.geo_radius_km = 2.5;
  }
  if (mask & 2u) c.allowed_categories = {0, 3, 7, 2147483647};
  if (mask & 4u) c.blocked_categories = {-1, 5};
  if (mask & 8u) c.exclude_visited = true;
  if (mask & 16u) {
    c.open_at = 1234567890;
    c.min_open_weight = 0.625;
  }
  return c;
}

eval::RecommendRequest RequestFor(unsigned mask) {
  eval::RecommendRequest request;
  request.sample = {7, 3, 11};
  request.top_n = 15;
  request.constraints = ConstraintsFor(mask);
  return request;
}

void ExpectSameConstraints(const eval::CandidateConstraints& a,
                           const eval::CandidateConstraints& b) {
  // Bit-level equality for the floating-point fields: the wire format must
  // not round anything.
  EXPECT_EQ(std::memcmp(&a.geo_center.lat, &b.geo_center.lat, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.geo_center.lon, &b.geo_center.lon, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.geo_radius_km, &b.geo_radius_km, sizeof(double)), 0);
  EXPECT_EQ(a.allowed_categories, b.allowed_categories);
  EXPECT_EQ(a.blocked_categories, b.blocked_categories);
  EXPECT_EQ(a.exclude_visited, b.exclude_visited);
  EXPECT_EQ(a.open_at, b.open_at);
  EXPECT_EQ(std::memcmp(&a.min_open_weight, &b.min_open_weight, sizeof(double)),
            0);
}

TEST(CodecRequestTest, RoundTripEveryConstraintCombination) {
  // All 2^5 combinations of {geo fence, allow-list, block-list,
  // exclude-visited, open-time} — the full CandidateConstraints surface.
  for (unsigned mask = 0; mask < 32; ++mask) {
    SCOPED_TRACE("constraint mask " + std::to_string(mask));
    const eval::RecommendRequest request = RequestFor(mask);
    const std::vector<uint8_t> frame =
        EncodeRecommendRequest("endpoint-a", request);

    // The 2-argument encoder is the 3-argument one at the default class.
    EXPECT_EQ(EncodeRecommendRequest("endpoint-a", request, AdmissionClass{}),
              frame);

    std::string endpoint;
    eval::RecommendRequest decoded;
    AdmissionClass admission;
    admission.deadline_ms = 777;  // must be overwritten by the defaults
    admission.priority = Priority::kBackground;
    ASSERT_EQ(DecodeRecommendRequest(frame, &endpoint, &decoded, &admission),
              DecodeStatus::kOk);
    EXPECT_EQ(admission.deadline_ms, 0);
    EXPECT_EQ(admission.priority, Priority::kInteractive);
    EXPECT_EQ(endpoint, "endpoint-a");
    EXPECT_EQ(decoded.sample.user, request.sample.user);
    EXPECT_EQ(decoded.sample.traj, request.sample.traj);
    EXPECT_EQ(decoded.sample.prefix_len, request.sample.prefix_len);
    EXPECT_EQ(decoded.top_n, request.top_n);
    ExpectSameConstraints(decoded.constraints, request.constraints);
    EXPECT_EQ(decoded.constraints.Active(), request.constraints.Active());

    // Encode(Decode(frame)) must reproduce the frame byte for byte.
    EXPECT_EQ(EncodeRecommendRequest(endpoint, decoded), frame);
  }
}

TEST(CodecResponseTest, RoundTripIsBitExact) {
  eval::RecommendResponse response;
  response.stages_used = 2;
  response.tiles_screened = 37;
  response.items = {{101, 0.875f, 4},
                    {7, -0.125f, -1},
                    {99999999999LL, 3.14159f, 9000}};

  const std::vector<uint8_t> frame = EncodeRecommendResponse(response);
  eval::RecommendResponse decoded;
  ASSERT_EQ(DecodeRecommendResponse(frame, &decoded), DecodeStatus::kOk);
  ASSERT_EQ(decoded.items.size(), response.items.size());
  for (size_t i = 0; i < response.items.size(); ++i) {
    EXPECT_EQ(decoded.items[i].poi_id, response.items[i].poi_id);
    EXPECT_EQ(std::memcmp(&decoded.items[i].score, &response.items[i].score,
                          sizeof(float)),
              0);
    EXPECT_EQ(decoded.items[i].tile_index, response.items[i].tile_index);
  }
  EXPECT_EQ(decoded.stages_used, response.stages_used);
  EXPECT_EQ(decoded.tiles_screened, response.tiles_screened);
  EXPECT_EQ(EncodeRecommendResponse(decoded), frame);
}

TEST(CodecResponseTest, EmptyResponseRoundTrips) {
  eval::RecommendResponse response;
  eval::RecommendResponse decoded;
  ASSERT_EQ(DecodeRecommendResponse(EncodeRecommendResponse(response), &decoded),
            DecodeStatus::kOk);
  EXPECT_TRUE(decoded.items.empty());
  EXPECT_EQ(decoded.stages_used, 1);
  EXPECT_EQ(decoded.tiles_screened, 0);
}

TEST(CodecErrorFrameTest, RoundTrips) {
  const std::vector<uint8_t> frame =
      EncodeErrorFrame("no such endpoint", ErrorCode::kUnknownEndpoint);
  std::string message;
  ASSERT_EQ(DecodeErrorFrame(frame, &message), DecodeStatus::kOk);
  EXPECT_EQ(message, "no such endpoint");
  FrameType type;
  ASSERT_EQ(PeekFrameType(frame, &type), DecodeStatus::kOk);
  EXPECT_EQ(type, FrameType::kError);
}

TEST(CodecCorruptionTest, BadMagicIsRejected) {
  std::vector<uint8_t> frame = EncodeRecommendRequest("x", RequestFor(0));
  frame[0] ^= 0xFF;
  std::string endpoint;
  eval::RecommendRequest request;
  EXPECT_EQ(DecodeRecommendRequest(frame, &endpoint, &request),
            DecodeStatus::kBadMagic);
  FrameType type;
  EXPECT_EQ(PeekFrameType(frame, &type), DecodeStatus::kBadMagic);
}

TEST(CodecCorruptionTest, WrongFrameTypeIsRejected) {
  const std::vector<uint8_t> response_frame =
      EncodeRecommendResponse(eval::RecommendResponse{});
  std::string endpoint;
  eval::RecommendRequest request;
  EXPECT_EQ(DecodeRecommendRequest(response_frame, &endpoint, &request),
            DecodeStatus::kWrongFrameType);

  const std::vector<uint8_t> request_frame =
      EncodeRecommendRequest("x", RequestFor(0));
  eval::RecommendResponse response;
  EXPECT_EQ(DecodeRecommendResponse(request_frame, &response),
            DecodeStatus::kWrongFrameType);
}

TEST(CodecCorruptionTest, AbsurdCategoryCountIsRejected) {
  // Corrupt the allow-list count field into ~4 billion: the decoder must
  // refuse rather than allocate. The count sits right after the endpoint
  // string, sample and top_n plus the three fence doubles.
  eval::RecommendRequest request = RequestFor(2);
  std::vector<uint8_t> frame = EncodeRecommendRequest("e", request);
  const size_t header = 4 + 4 + 1 + 4;
  const size_t count_offset = header + (4 + 1) /* endpoint */ +
                              3 * sizeof(int32_t) + sizeof(int64_t) +
                              3 * sizeof(double);
  const uint32_t absurd = 0xFFFFFFFFu;
  std::memcpy(frame.data() + count_offset, &absurd, sizeof(absurd));
  std::string endpoint;
  eval::RecommendRequest decoded;
  EXPECT_EQ(DecodeRecommendRequest(frame, &endpoint, &decoded),
            DecodeStatus::kMalformedPayload);
}

TEST(CodecCorruptionTest, HugeItemCountInTinyResponseFrameIsRejected) {
  // A near-empty frame claiming kMaxItems entries must be refused by the
  // bytes-remaining check, not satisfied by a multi-megabyte resize.
  std::vector<uint8_t> frame = EncodeRecommendResponse(eval::RecommendResponse{});
  const size_t header = 4 + 4 + 1 + 4;
  const uint32_t huge = (1u << 20) - 1;
  std::memcpy(frame.data() + header, &huge, sizeof(huge));
  eval::RecommendResponse response;
  EXPECT_EQ(DecodeRecommendResponse(frame, &response),
            DecodeStatus::kMalformedPayload);
}

TEST(CodecCorruptionTest, EmptyAndHeaderOnlyBuffersAreTruncated) {
  std::vector<uint8_t> empty;
  eval::RecommendResponse response;
  EXPECT_EQ(DecodeRecommendResponse(empty, &response), DecodeStatus::kTruncated);
  FrameType type;
  EXPECT_EQ(PeekFrameType(empty, &type), DecodeStatus::kTruncated);
}

// --- Admission fields and error codes ----------------------------------------

TEST(CodecRequestTest, AdmissionFieldsRoundTrip) {
  const Priority kAll[] = {Priority::kBackground, Priority::kBulk,
                           Priority::kInteractive};
  for (Priority priority : kAll) {
    for (int64_t deadline_ms : {int64_t{0}, int64_t{1}, int64_t{250},
                                int64_t{86400000}}) {
      SCOPED_TRACE(std::string(PriorityName(priority)) + " deadline " +
                   std::to_string(deadline_ms));
      AdmissionClass admission;
      admission.deadline_ms = deadline_ms;
      admission.priority = priority;
      const std::vector<uint8_t> frame =
          EncodeRecommendRequest("ep", RequestFor(21), admission);

      std::string endpoint;
      eval::RecommendRequest decoded;
      AdmissionClass decoded_admission;
      ASSERT_EQ(DecodeRecommendRequest(frame, &endpoint, &decoded,
                                       &decoded_admission),
                DecodeStatus::kOk);
      EXPECT_EQ(decoded_admission.deadline_ms, deadline_ms);
      EXPECT_EQ(decoded_admission.priority, priority);
      ExpectSameConstraints(decoded.constraints, RequestFor(21).constraints);

      // Re-encode must reproduce the frame byte for byte.
      EXPECT_EQ(EncodeRecommendRequest(endpoint, decoded, decoded_admission),
                frame);
    }
  }
}

TEST(CodecRequestTest, NegativeDeadlineAndBadPriorityAreMalformed) {
  AdmissionClass admission;
  admission.deadline_ms = 100;
  admission.priority = Priority::kBulk;
  const std::vector<uint8_t> frame =
      EncodeRecommendRequest("e", RequestFor(0), admission);

  // The admission tail is the final 9 payload bytes: int64 deadline, uint8
  // priority.
  std::vector<uint8_t> bad_priority = frame;
  bad_priority.back() = kMaxPriority + 1;
  std::string endpoint;
  eval::RecommendRequest request;
  AdmissionClass out;
  EXPECT_EQ(DecodeRecommendRequest(bad_priority, &endpoint, &request, &out),
            DecodeStatus::kMalformedPayload);

  std::vector<uint8_t> negative_deadline = frame;
  const int64_t negative = -1;
  std::memcpy(negative_deadline.data() + negative_deadline.size() - 9,
              &negative, sizeof(negative));
  EXPECT_EQ(
      DecodeRecommendRequest(negative_deadline, &endpoint, &request, &out),
      DecodeStatus::kMalformedPayload);
}

/// Byte offset of the payload-length word, and the header size.
constexpr size_t kPayloadLenOffset = 4 + 4 + 1;
constexpr size_t kHeaderBytes = kPayloadLenOffset + 4;

/// Drops the last `bytes` payload bytes and patches the payload length, so
/// the header stays consistent and only the payload is short.
std::vector<uint8_t> DropPayloadTail(std::vector<uint8_t> frame, size_t bytes) {
  frame.resize(frame.size() - bytes);
  const uint32_t payload_len = static_cast<uint32_t>(frame.size() - kHeaderBytes);
  std::memcpy(frame.data() + kPayloadLenOffset, &payload_len,
              sizeof(payload_len));
  return frame;
}

TEST(CodecRequestTest, RequestWithoutAdmissionTailIsMalformed) {
  // The admission tail is part of the one request layout: a frame whose
  // payload stops before it is rejected, not defaulted.
  const std::vector<uint8_t> frame =
      DropPayloadTail(EncodeRecommendRequest("e", RequestFor(0)),
                      sizeof(int64_t) + sizeof(uint8_t));
  std::string endpoint;
  eval::RecommendRequest request;
  EXPECT_EQ(DecodeRecommendRequest(frame, &endpoint, &request),
            DecodeStatus::kMalformedPayload);
}

TEST(CodecErrorFrameTest, ErrorCodeRoundTrips) {
  for (uint8_t raw = 0; raw <= kMaxErrorCode; ++raw) {
    const ErrorCode code = static_cast<ErrorCode>(raw);
    SCOPED_TRACE(ErrorCodeName(code));
    const std::vector<uint8_t> frame = EncodeErrorFrame("shed", code);
    std::string message;
    ErrorCode decoded = ErrorCode::kGeneric;
    ASSERT_EQ(DecodeErrorFrame(frame, &message, &decoded), DecodeStatus::kOk);
    EXPECT_EQ(message, "shed");
    EXPECT_EQ(decoded, code);
  }
}

TEST(CodecErrorFrameTest, OutOfRangeCodeIsMalformed) {
  std::vector<uint8_t> frame = EncodeErrorFrame("x", ErrorCode::kExpired);
  frame.back() = kMaxErrorCode + 1;
  std::string message;
  ErrorCode code;
  EXPECT_EQ(DecodeErrorFrame(frame, &message, &code),
            DecodeStatus::kMalformedPayload);

  // A frame without its code byte is malformed too.
  EXPECT_EQ(DecodeErrorFrame(DropPayloadTail(frame, 1), &message, &code),
            DecodeStatus::kMalformedPayload);
}

// --- Itinerary frames --------------------------------------------------------

/// One representative itinerary request per field-variation mask; the
/// constraint block reuses ConstraintsFor so the full CandidateConstraints
/// surface rides along.
plan::ItineraryRequest ItineraryRequestFor(unsigned mask) {
  plan::ItineraryRequest request;
  request.start = {5, 2, 9};
  request.k_stops = 1 + static_cast<int32_t>(mask % plan::kMaxItineraryStops);
  request.time_budget_hours = 7.25;
  request.travel_speed_kmh = 27.5;
  request.dwell_hours = 0.75;
  request.start_time = (mask & 1u) ? 1700000000 : -1;
  request.return_to_start = (mask & 2u) != 0;
  request.max_stops_per_category = (mask & 4u) ? 2 : 0;
  request.enforce_open_hours = (mask & 8u) != 0;
  request.constraints = ConstraintsFor(mask % 32);
  return request;
}

void ExpectSameItineraryRequest(const plan::ItineraryRequest& a,
                                const plan::ItineraryRequest& b) {
  EXPECT_EQ(a.start.user, b.start.user);
  EXPECT_EQ(a.start.traj, b.start.traj);
  EXPECT_EQ(a.start.prefix_len, b.start.prefix_len);
  EXPECT_EQ(a.k_stops, b.k_stops);
  EXPECT_EQ(std::memcmp(&a.time_budget_hours, &b.time_budget_hours,
                        sizeof(double)),
            0);
  EXPECT_EQ(
      std::memcmp(&a.travel_speed_kmh, &b.travel_speed_kmh, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.dwell_hours, &b.dwell_hours, sizeof(double)), 0);
  EXPECT_EQ(a.start_time, b.start_time);
  EXPECT_EQ(a.return_to_start, b.return_to_start);
  EXPECT_EQ(a.max_stops_per_category, b.max_stops_per_category);
  EXPECT_EQ(a.enforce_open_hours, b.enforce_open_hours);
  EXPECT_EQ(a.mode, b.mode);
  ExpectSameConstraints(a.constraints, b.constraints);
}

TEST(CodecItineraryRequestTest, RoundTripEveryFieldCombination) {
  for (unsigned mask = 0; mask < 64; ++mask) {
    SCOPED_TRACE("field mask " + std::to_string(mask));
    const plan::ItineraryRequest request = ItineraryRequestFor(mask);
    const std::vector<uint8_t> frame =
        EncodeItineraryRequest("trips-nyc", request);

    FrameType type;
    ASSERT_EQ(PeekFrameType(frame, &type), DecodeStatus::kOk);
    EXPECT_EQ(type, FrameType::kItineraryRequest);

    std::string endpoint;
    plan::ItineraryRequest decoded;
    ASSERT_EQ(DecodeItineraryRequest(frame, &endpoint, &decoded),
              DecodeStatus::kOk);
    EXPECT_EQ(endpoint, "trips-nyc");
    ExpectSameItineraryRequest(decoded, request);

    // Encode(Decode(frame)) must reproduce the frame byte for byte.
    EXPECT_EQ(EncodeItineraryRequest(endpoint, decoded), frame);
  }
}

plan::ItineraryResponse SampleItineraryResponse() {
  plan::ItineraryResponse response;
  plan::ItineraryPlan plan;
  plan.stops = {{101, 0.875f, 0.25, 1.25, 3.5},
                {-7, -0.125f, 1.5, 2.5, 4.25}};
  plan.total_score = 0.75;
  plan.total_hours = 2.5;
  plan.total_km = 7.75;
  response.plans.push_back(plan);
  response.plans.push_back(plan::ItineraryPlan{});  // empty plan survives too
  response.expansions = 12;
  response.rollouts_scored = 41;
  return response;
}

TEST(CodecItineraryResponseTest, RoundTripIsBitExact) {
  const plan::ItineraryResponse response = SampleItineraryResponse();
  const std::vector<uint8_t> frame = EncodeItineraryResponse(response);

  plan::ItineraryResponse decoded;
  ASSERT_EQ(DecodeItineraryResponse(frame, &decoded), DecodeStatus::kOk);
  ASSERT_EQ(decoded.plans.size(), response.plans.size());
  for (size_t p = 0; p < response.plans.size(); ++p) {
    const plan::ItineraryPlan& expect = response.plans[p];
    const plan::ItineraryPlan& got = decoded.plans[p];
    ASSERT_EQ(got.stops.size(), expect.stops.size());
    for (size_t s = 0; s < expect.stops.size(); ++s) {
      EXPECT_EQ(got.stops[s].poi_id, expect.stops[s].poi_id);
      EXPECT_EQ(std::memcmp(&got.stops[s].model_score,
                            &expect.stops[s].model_score, sizeof(float)),
                0);
      EXPECT_EQ(std::memcmp(&got.stops[s].arrive_hours,
                            &expect.stops[s].arrive_hours, sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(&got.stops[s].depart_hours,
                            &expect.stops[s].depart_hours, sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(&got.stops[s].travel_km, &expect.stops[s].travel_km,
                            sizeof(double)),
                0);
    }
    EXPECT_EQ(std::memcmp(&got.total_score, &expect.total_score,
                          sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&got.total_hours, &expect.total_hours,
                          sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&got.total_km, &expect.total_km, sizeof(double)), 0);
  }
  EXPECT_EQ(decoded.expansions, response.expansions);
  EXPECT_EQ(decoded.rollouts_scored, response.rollouts_scored);
  EXPECT_EQ(EncodeItineraryResponse(decoded), frame);
}

TEST(CodecItineraryTest, WrongFrameTypeIsRejected) {
  // The itinerary frames reject the recommend decoders and vice versa — no
  // payload confusion across the type byte.
  const std::vector<uint8_t> itinerary_frame =
      EncodeItineraryRequest("e", ItineraryRequestFor(0));
  std::string endpoint;
  eval::RecommendRequest recommend;
  EXPECT_EQ(DecodeRecommendRequest(itinerary_frame, &endpoint, &recommend),
            DecodeStatus::kWrongFrameType);

  plan::ItineraryRequest request;
  EXPECT_EQ(DecodeItineraryRequest(EncodeRecommendRequest("e", RequestFor(0)),
                                   &endpoint, &request),
            DecodeStatus::kWrongFrameType);
  plan::ItineraryResponse response;
  EXPECT_EQ(DecodeItineraryResponse(
                EncodeRecommendResponse(eval::RecommendResponse{}), &response),
            DecodeStatus::kWrongFrameType);
}

TEST(CodecItineraryTest, BadFlagModeAndStopCountAreMalformed) {
  const plan::ItineraryRequest request = ItineraryRequestFor(0);
  const std::vector<uint8_t> frame = EncodeItineraryRequest("e", request);
  // Payload layout after the endpoint string: sample (3x int32), k_stops
  // (int32), three doubles, start_time (int64), return flag, quota (int32),
  // open-hours flag, mode byte.
  const size_t endpoint_bytes = 4 + 1;
  const size_t k_stops_offset =
      kHeaderBytes + endpoint_bytes + 3 * sizeof(int32_t);
  const size_t return_flag_offset =
      k_stops_offset + sizeof(int32_t) + 3 * sizeof(double) + sizeof(int64_t);
  const size_t mode_offset =
      return_flag_offset + 1 + sizeof(int32_t) + 1;

  std::string endpoint;
  plan::ItineraryRequest decoded;

  std::vector<uint8_t> bad_flag = frame;
  bad_flag[return_flag_offset] = 2;
  EXPECT_EQ(DecodeItineraryRequest(bad_flag, &endpoint, &decoded),
            DecodeStatus::kMalformedPayload);

  for (const uint8_t mode : {uint8_t{1}, uint8_t{9}}) {  // only kBeam (0)
    std::vector<uint8_t> bad_mode = frame;
    bad_mode[mode_offset] = mode;
    EXPECT_EQ(DecodeItineraryRequest(bad_mode, &endpoint, &decoded),
              DecodeStatus::kMalformedPayload)
        << "mode byte " << int{mode};
  }

  std::vector<uint8_t> bad_k = frame;
  const int32_t too_many = plan::kMaxItineraryStops + 1;
  std::memcpy(bad_k.data() + k_stops_offset, &too_many, sizeof(too_many));
  EXPECT_EQ(DecodeItineraryRequest(bad_k, &endpoint, &decoded),
            DecodeStatus::kMalformedPayload);
}

TEST(CodecItineraryTest, HugePlanAndStopCountsAreRejected) {
  // A tiny frame claiming more plans than the cap (or more than its bytes
  // can hold) must be refused by the count checks, never satisfied by a
  // giant resize.
  std::vector<uint8_t> frame =
      EncodeItineraryResponse(plan::ItineraryResponse{});
  const uint32_t over_cap = kMaxItineraryPlans + 1;
  std::memcpy(frame.data() + kHeaderBytes, &over_cap, sizeof(over_cap));
  plan::ItineraryResponse response;
  EXPECT_EQ(DecodeItineraryResponse(frame, &response),
            DecodeStatus::kMalformedPayload);

  const uint32_t claims_plans = 3;  // in-cap but the frame has no plan bytes
  std::memcpy(frame.data() + kHeaderBytes, &claims_plans, sizeof(claims_plans));
  EXPECT_EQ(DecodeItineraryResponse(frame, &response),
            DecodeStatus::kMalformedPayload);

  // Stop-count cap inside a plan: corrupt the first plan's stop count.
  plan::ItineraryResponse one_plan;
  one_plan.plans.emplace_back();
  std::vector<uint8_t> plan_frame = EncodeItineraryResponse(one_plan);
  const uint32_t huge_stops = static_cast<uint32_t>(plan::kMaxItineraryStops) + 1;
  std::memcpy(plan_frame.data() + kHeaderBytes + sizeof(uint32_t), &huge_stops,
              sizeof(huge_stops));
  EXPECT_EQ(DecodeItineraryResponse(plan_frame, &response),
            DecodeStatus::kMalformedPayload);
}

// --- Every frame type --------------------------------------------------------

WireStatsSnapshot SampleStatsSnapshot() {
  WireEndpointStats row;
  row.endpoint = "city";
  row.model_name = "TSPN-RA";
  row.queue_depth = 3;
  row.lifetime_submitted = 1000;
  row.lifetime_completed = 990;
  row.lifetime_rejected = 10;
  row.shed_deadline = 4;
  row.shed_capacity = 5;
  row.expired_in_queue = 1;
  row.degraded = 7;
  row.swaps = 2;
  row.degraded_now = true;
  row.qps = 312.5;
  row.p50_latency_ms = 1.25;
  row.p95_latency_ms = 4.75;
  WireStatsSnapshot snapshot;
  snapshot.endpoints = {row, WireEndpointStats{}};
  return snapshot;
}

/// One encoded frame of each type, and a decoder that re-encodes what it
/// decoded (into *reencoded, on kOk) and checks that a failed decode left
/// its outputs untouched.
struct FrameCase {
  const char* name;
  FrameType type;
  std::vector<uint8_t> frame;
  std::function<DecodeStatus(const std::vector<uint8_t>&,
                             std::vector<uint8_t>* reencoded)>
      decode;
};

std::vector<FrameCase> EveryFrameType() {
  AdmissionClass admission;
  admission.deadline_ms = 1500;
  admission.priority = Priority::kBulk;
  eval::RecommendResponse response;
  response.stages_used = 2;
  response.tiles_screened = 9;
  response.items = {{101, 0.875f, 4}, {7, -0.125f, -1}};
  std::vector<FrameCase> cases;
  cases.push_back(
      {"request", FrameType::kRequest,
       EncodeRecommendRequest("city-a", RequestFor(31), admission),
       [](const std::vector<uint8_t>& f, std::vector<uint8_t>* reencoded) {
         std::string endpoint = "untouched";
         eval::RecommendRequest request;
         request.top_n = 42;
         AdmissionClass out;
         out.deadline_ms = -42;
         const DecodeStatus s =
             DecodeRecommendRequest(f, &endpoint, &request, &out);
         if (s == DecodeStatus::kOk) {
           *reencoded = EncodeRecommendRequest(endpoint, request, out);
         } else {
           EXPECT_EQ(endpoint, "untouched");
           EXPECT_EQ(request.top_n, 42);
           EXPECT_EQ(out.deadline_ms, -42);
         }
         return s;
       }});
  cases.push_back(
      {"response", FrameType::kResponse, EncodeRecommendResponse(response),
       [](const std::vector<uint8_t>& f, std::vector<uint8_t>* reencoded) {
         eval::RecommendResponse out;
         out.tiles_screened = -42;
         const DecodeStatus s = DecodeRecommendResponse(f, &out);
         if (s == DecodeStatus::kOk) {
           *reencoded = EncodeRecommendResponse(out);
         } else {
           EXPECT_EQ(out.tiles_screened, -42);
         }
         return s;
       }});
  cases.push_back(
      {"error", FrameType::kError,
       EncodeErrorFrame("shed", ErrorCode::kShardUnavailable),
       [](const std::vector<uint8_t>& f, std::vector<uint8_t>* reencoded) {
         std::string message = "untouched";
         ErrorCode code = ErrorCode::kExpired;
         const DecodeStatus s = DecodeErrorFrame(f, &message, &code);
         if (s == DecodeStatus::kOk) {
           *reencoded = EncodeErrorFrame(message, code);
         } else {
           EXPECT_EQ(message, "untouched");
           EXPECT_EQ(code, ErrorCode::kExpired);
         }
         return s;
       }});
  cases.push_back(
      {"ping", FrameType::kPing, EncodePingFrame(0x0123456789ABCDEFull),
       [](const std::vector<uint8_t>& f, std::vector<uint8_t>* reencoded) {
         uint64_t nonce = 42;
         const DecodeStatus s = DecodePingFrame(f, &nonce);
         if (s == DecodeStatus::kOk) {
           *reencoded = EncodePingFrame(nonce);
         } else {
           EXPECT_EQ(nonce, 42u);
         }
         return s;
       }});
  cases.push_back(
      {"pong", FrameType::kPong, EncodePongFrame(7),
       [](const std::vector<uint8_t>& f, std::vector<uint8_t>* reencoded) {
         uint64_t nonce = 42;
         const DecodeStatus s = DecodePongFrame(f, &nonce);
         if (s == DecodeStatus::kOk) {
           *reencoded = EncodePongFrame(nonce);
         } else {
           EXPECT_EQ(nonce, 42u);
         }
         return s;
       }});
  cases.push_back(
      {"stats request", FrameType::kStatsRequest, EncodeStatsRequest(),
       [](const std::vector<uint8_t>& f, std::vector<uint8_t>* reencoded) {
         const DecodeStatus s = DecodeStatsRequest(f);
         if (s == DecodeStatus::kOk) *reencoded = EncodeStatsRequest();
         return s;
       }});
  cases.push_back(
      {"stats response", FrameType::kStatsResponse,
       EncodeStatsResponse(SampleStatsSnapshot()),
       [](const std::vector<uint8_t>& f, std::vector<uint8_t>* reencoded) {
         WireStatsSnapshot out;
         out.endpoints.resize(1);
         out.endpoints[0].swaps = -42;
         const DecodeStatus s = DecodeStatsResponse(f, &out);
         if (s == DecodeStatus::kOk) {
           *reencoded = EncodeStatsResponse(out);
         } else {
           EXPECT_EQ(out.endpoints.size(), 1u);
           EXPECT_EQ(out.endpoints[0].swaps, -42);
         }
         return s;
       }});
  cases.push_back(
      {"itinerary request", FrameType::kItineraryRequest,
       EncodeItineraryRequest("city-a", ItineraryRequestFor(63)),
       [](const std::vector<uint8_t>& f, std::vector<uint8_t>* reencoded) {
         std::string endpoint = "untouched";
         plan::ItineraryRequest request;
         request.k_stops = 42;
         const DecodeStatus s = DecodeItineraryRequest(f, &endpoint, &request);
         if (s == DecodeStatus::kOk) {
           *reencoded = EncodeItineraryRequest(endpoint, request);
         } else {
           EXPECT_EQ(endpoint, "untouched");
           EXPECT_EQ(request.k_stops, 42);
         }
         return s;
       }});
  cases.push_back(
      {"itinerary response", FrameType::kItineraryResponse,
       EncodeItineraryResponse(SampleItineraryResponse()),
       [](const std::vector<uint8_t>& f, std::vector<uint8_t>* reencoded) {
         plan::ItineraryResponse out;
         out.expansions = -42;
         const DecodeStatus s = DecodeItineraryResponse(f, &out);
         if (s == DecodeStatus::kOk) {
           *reencoded = EncodeItineraryResponse(out);
         } else {
           EXPECT_EQ(out.expansions, -42);
         }
         return s;
       }});
  return cases;
}

uint32_t FrameVersion(const std::vector<uint8_t>& frame) {
  uint32_t version = 0;
  std::memcpy(&version, frame.data() + sizeof(uint32_t), sizeof(version));
  return version;
}

TEST(CodecEveryFrameTest, OneLayoutStrictlyDecoded) {
  const std::vector<FrameCase> cases = EveryFrameType();
  ASSERT_EQ(cases.size(), 9u);
  for (const FrameCase& c : cases) {
    SCOPED_TRACE(c.name);
    // The one version word, the type byte PeekFrameType reports, and a
    // bit-exact round trip.
    EXPECT_EQ(FrameVersion(c.frame), kWireVersion);
    FrameType type = FrameType::kRequest;
    ASSERT_EQ(PeekFrameType(c.frame, &type), DecodeStatus::kOk);
    EXPECT_EQ(type, c.type);
    std::vector<uint8_t> reencoded;
    ASSERT_EQ(c.decode(c.frame, &reencoded), DecodeStatus::kOk);
    EXPECT_EQ(reencoded, c.frame);

    // Every other version word is refused.
    for (uint32_t version : {0u, 1u, 2u, 3u, kWireVersion + 1}) {
      SCOPED_TRACE("version " + std::to_string(version));
      std::vector<uint8_t> other = c.frame;
      std::memcpy(other.data() + sizeof(uint32_t), &version, sizeof(version));
      EXPECT_EQ(c.decode(other, &reencoded), DecodeStatus::kUnsupportedVersion);
      EXPECT_EQ(PeekFrameType(other, &type), DecodeStatus::kUnsupportedVersion);
    }

    // Every proper prefix is truncated.
    for (size_t len = 0; len < c.frame.size(); ++len) {
      SCOPED_TRACE("prefix length " + std::to_string(len));
      const std::vector<uint8_t> cut(c.frame.begin(), c.frame.begin() + len);
      EXPECT_EQ(c.decode(cut, &reencoded), DecodeStatus::kTruncated);
    }

    // A byte past the declared payload is trailing garbage.
    std::vector<uint8_t> longer = c.frame;
    longer.push_back(0xAB);
    EXPECT_EQ(c.decode(longer, &reencoded), DecodeStatus::kTrailingGarbage);
    EXPECT_EQ(PeekFrameType(longer, &type), DecodeStatus::kTrailingGarbage);
  }
}

TEST(CodecEveryFrameTest, HugeCountsInTinyFramesAreRejected) {
  // A row count in range but far beyond what the payload can hold must be
  // refused before the decoder allocates the rows.
  std::vector<uint8_t> stats = EncodeStatsResponse(WireStatsSnapshot{});
  const uint32_t endpoints = 4096;  // the endpoint-count cap
  std::memcpy(stats.data() + kHeaderBytes, &endpoints, sizeof(endpoints));
  ASSERT_EQ(stats.size(), kHeaderBytes + sizeof(uint32_t));
  WireStatsSnapshot snapshot;
  int64_t before = allocations_on_this_thread;
  DecodeStatus status = DecodeStatsResponse(stats, &snapshot);
  EXPECT_EQ(allocations_on_this_thread - before, 0);
  EXPECT_EQ(status, DecodeStatus::kMalformedPayload);

  std::vector<uint8_t> plans = EncodeItineraryResponse(plan::ItineraryResponse{});
  const uint32_t plan_count = kMaxItineraryPlans;
  std::memcpy(plans.data() + kHeaderBytes, &plan_count, sizeof(plan_count));
  plan::ItineraryResponse response;
  before = allocations_on_this_thread;
  status = DecodeItineraryResponse(plans, &response);
  EXPECT_EQ(allocations_on_this_thread - before, 0);
  EXPECT_EQ(status, DecodeStatus::kMalformedPayload);
}

}  // namespace
}  // namespace tspn::serve
