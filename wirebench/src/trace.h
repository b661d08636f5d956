// Spans, percentiles and the self-time arithmetic the traced run reports.
//
// Everything is timed on std::chrono::steady_clock in one process, so the
// load generator's client spans, the handler decorators' spans and the
// model-batch spans share one time base and nest without clock skew.

#ifndef WIREBENCH_TRACE_H_
#define WIREBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace wirebench {

using Ns = int64_t;

inline Ns NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One traced interval. `parent` indexes the enclosing span in the same
/// list (-1 for a root); `request` is the client request id the span
/// served (-1 when it served none in particular).
struct Span {
  std::string name;
  Ns start = 0;
  Ns end = 0;
  int64_t parent = -1;
  int64_t request = -1;

  Ns duration() const { return end - start; }
};

/// A span's self time: its duration minus the part of [start, end) that
/// its children cover. Children may overlap each other and may stick out
/// of the parent; only the covered part inside the parent counts, once.
inline Ns SelfTimeNs(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<Ns, Ns>> parts;
  parts.reserve(children.size());
  for (const Span& child : children) {
    const Ns lo = std::max(child.start, parent.start);
    const Ns hi = std::min(child.end, parent.end);
    if (hi > lo) parts.emplace_back(lo, hi);
  }
  std::sort(parts.begin(), parts.end());
  Ns covered = 0;
  Ns run_lo = 0;
  Ns run_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : parts) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) covered += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) covered += run_hi - run_lo;
  return parent.duration() - covered;
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when
/// the sample is empty.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// FNV-1a over a byte string: the key that pairs a client request with the
/// handler spans its frame produced (frames are forwarded verbatim).
inline uint64_t HashBytes(const std::vector<uint8_t>& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace wirebench

#endif  // WIREBENCH_TRACE_H_
