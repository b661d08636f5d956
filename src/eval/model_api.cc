#include "eval/model_api.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>

#include "common/binary_io.h"
#include "common/check.h"

namespace tspn::eval {

namespace {

// Checkpoint container header: magic + format version + the producing
// model's name. The payload that follows is model-defined (SaveState).
constexpr uint32_t kCheckpointMagic = 0x4B435354;  // "TSCK"
constexpr uint32_t kCheckpointVersion = 1;

}  // namespace

std::vector<RecommendResponse> NextPoiModel::RecommendBatchImpl(
    common::Span<RecommendRequest> requests) const {
  std::vector<RecommendResponse> responses;
  responses.reserve(requests.size());
  for (const RecommendRequest& request : requests) {
    responses.push_back(RecommendImpl(request));
  }
  return responses;
}

void NextPoiModel::SaveState(std::ostream& out) const { (void)out; }

bool NextPoiModel::LoadState(std::istream& in) { return in.good(); }

void NextPoiModel::SaveCheckpoint(const std::string& path) const {
  // Atomic publish: stage the full checkpoint in a sibling temp file, fsync
  // it, then rename over the target. A crash mid-write leaves at worst a
  // stale `*.tmp` plus the intact previous checkpoint — never a torn TSCK
  // file for LoadCheckpoint to trip on.
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    TSPN_CHECK(out.is_open()) << "cannot open " << tmp_path;
    common::WritePod(out, kCheckpointMagic);
    common::WritePod(out, kCheckpointVersion);
    const std::string model_name = name();
    common::WritePod(out, static_cast<uint32_t>(model_name.size()));
    out.write(model_name.data(),
              static_cast<std::streamsize>(model_name.size()));
    SaveState(out);
    out.flush();
    TSPN_CHECK(out.good()) << "checkpoint write failed: " << tmp_path;
  }
  const int fd = ::open(tmp_path.c_str(), O_RDONLY);
  TSPN_CHECK(fd >= 0) << "cannot reopen " << tmp_path << " for fsync";
  const int fsync_rc = ::fsync(fd);
  ::close(fd);
  TSPN_CHECK(fsync_rc == 0) << "fsync failed: " << tmp_path;
  TSPN_CHECK(std::rename(tmp_path.c_str(), path.c_str()) == 0)
      << "rename " << tmp_path << " -> " << path << " failed";
}

bool NextPoiModel::LoadCheckpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  uint32_t magic = 0;
  if (!common::ReadPod(in, &magic) || magic != kCheckpointMagic) return false;
  uint32_t version = 0;
  if (!common::ReadPod(in, &version) || version != kCheckpointVersion) {
    return false;
  }
  uint32_t name_len = 0;
  if (!common::ReadPod(in, &name_len) || name_len > 256) return false;
  std::string stored_name(name_len, '\0');
  in.read(stored_name.data(), static_cast<std::streamsize>(name_len));
  if (!in.good() || stored_name != name()) return false;
  return LoadState(in);
}

}  // namespace tspn::eval
