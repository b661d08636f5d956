#ifndef TSPN_COMMON_ENV_H_
#define TSPN_COMMON_ENV_H_

#include <cstdint>
#include <string>

namespace tspn::common {

/// Reads an environment variable as int64, returning `fallback` if unset or
/// unparsable. Used for bench scaling knobs (e.g. TSPN_BENCH_SCALE).
int64_t EnvInt(const std::string& name, int64_t fallback);

/// Global scale multiplier for benchmark workloads; defaults to 1.
/// Controlled by TSPN_BENCH_SCALE.
int64_t BenchScale();

}  // namespace tspn::common

#endif  // TSPN_COMMON_ENV_H_
