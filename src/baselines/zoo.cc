// The baseline roster in the paper's order. Models are built by name
// through eval::ModelRegistry (src/eval/model_registry.h).

#include "baselines/base.h"

namespace tspn::baselines {

std::vector<std::string> BaselineNames() {
  // The paper's Table II order (not the registry's sorted order), without
  // TSPN-RA: bench tables iterate this list for baseline rows.
  return {"MC",      "GRU",     "STRNN",   "DeepMove",        "LSTPM",
          "STAN",    "SAE-NAD", "HMT-GRN", "Graph-Flashback", "STiSAN"};
}

}  // namespace tspn::baselines
