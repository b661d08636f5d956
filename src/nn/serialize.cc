#include "nn/serialize.h"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>

#include "common/check.h"

namespace tspn::nn {

namespace {
constexpr uint32_t kMagic = 0x54535056;  // "TSPV"
}  // namespace

void SaveParameters(const std::vector<Tensor>& parameters, std::ostream& out) {
  uint32_t magic = kMagic;
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  uint32_t count = static_cast<uint32_t>(parameters.size());
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const Tensor& p : parameters) {
    uint32_t rank = static_cast<uint32_t>(p.rank());
    out.write(reinterpret_cast<const char*>(&rank), sizeof(rank));
    for (int64_t d : p.shape()) {
      int64_t dim = d;
      out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
    }
    out.write(reinterpret_cast<const char*>(p.data()),
              static_cast<std::streamsize>(p.numel() * sizeof(float)));
  }
  TSPN_CHECK(out.good()) << "parameter serialization failed";
}

bool LoadParameters(std::vector<Tensor>& parameters, std::istream& in) {
  uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!in.good() || magic != kMagic) return false;
  uint32_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in.good() || count != parameters.size()) return false;
  for (Tensor& p : parameters) {
    uint32_t rank = 0;
    in.read(reinterpret_cast<char*>(&rank), sizeof(rank));
    if (!in.good() || rank != static_cast<uint32_t>(p.rank())) return false;
    for (int64_t expected : p.shape()) {
      int64_t dim = 0;
      in.read(reinterpret_cast<char*>(&dim), sizeof(dim));
      if (!in.good() || dim != expected) return false;
    }
    in.read(reinterpret_cast<char*>(p.data()),
            static_cast<std::streamsize>(p.numel() * sizeof(float)));
    if (!in.good()) return false;
  }
  return true;
}

bool LoadParametersStaged(const std::vector<Tensor>& like, std::istream& in,
                          std::vector<Tensor>* staged) {
  staged->clear();
  staged->reserve(like.size());
  for (const Tensor& p : like) {
    staged->push_back(Tensor::Zeros(p.shape()));
  }
  return LoadParameters(*staged, in);
}

bool LoadParametersAtomic(std::vector<Tensor>& parameters, std::istream& in) {
  std::vector<Tensor> staged;
  if (!LoadParametersStaged(parameters, in, &staged)) return false;
  for (size_t i = 0; i < parameters.size(); ++i) {
    std::copy_n(staged[i].data(), staged[i].numel(), parameters[i].data());
  }
  return true;
}

}  // namespace tspn::nn
