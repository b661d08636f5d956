#include "common/env.h"

#include <cstdlib>

namespace tspn::common {

int64_t EnvInt(const std::string& name, int64_t fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr) return fallback;
  char* end = nullptr;
  long long value = std::strtoll(raw, &end, 10);
  if (end == raw) return fallback;
  return static_cast<int64_t>(value);
}

int64_t BenchScale() {
  int64_t scale = EnvInt("TSPN_BENCH_SCALE", 1);
  return scale < 1 ? 1 : scale;
}

}  // namespace tspn::common
