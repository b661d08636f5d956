#ifndef TSPN_BENCH_BENCH_COMMON_H_
#define TSPN_BENCH_BENCH_COMMON_H_

// Shared helpers for the table/figure reproduction benches. Workload sizes
// honour TSPN_BENCH_* environment knobs so the whole suite runs in minutes
// by default and can be scaled up towards paper-sized runs.

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/base.h"
#include "common/check.h"
#include "common/env.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/tspn_ra.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "eval/model_api.h"
#include "eval/model_registry.h"

namespace tspn::bench {

// --- JSON bench reporting ----------------------------------------------------
//
// Every bench that participates in perf tracking writes a
// BENCH_<name>.json artifact next to the binary (or into
// TSPN_BENCH_JSON_DIR). tools/run_benches.sh diffs these against the
// committed baselines in bench/baselines/ to catch regressions.

/// One named result with free-form numeric fields, e.g.
///   {"name": "matmul_256", "ns_per_op": ..., "ns_per_op_before": ...,
///    "speedup": ...}
struct JsonResult {
  std::string name;
  std::vector<std::pair<std::string, double>> fields;
};

/// Collects JsonResult rows and renders BENCH_<bench_name>.json.
class JsonReporter {
 public:
  explicit JsonReporter(std::string bench_name) : bench_name_(std::move(bench_name)) {}

  /// Appends one result row with all its fields.
  void Add(const std::string& name,
           std::initializer_list<std::pair<const char*, double>> fields) {
    JsonResult r{name, {}};
    for (const auto& [key, value] : fields) r.fields.emplace_back(key, value);
    results_.push_back(std::move(r));
  }

  /// Writes the artifact; returns the path written (empty on failure).
  std::string Write() const {
    std::string dir = ".";
    if (const char* env = std::getenv("TSPN_BENCH_JSON_DIR")) dir = env;
    std::string path = dir + "/BENCH_" + bench_name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
      return "";
    }
    out << "{\n  \"bench\": \"" << bench_name_ << "\",\n  \"results\": [\n";
    for (size_t i = 0; i < results_.size(); ++i) {
      const JsonResult& r = results_[i];
      out << "    {\"name\": \"" << r.name << "\"";
      for (const auto& [key, value] : r.fields) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", value);
        out << ", \"" << key << "\": " << buf;
      }
      out << "}" << (i + 1 < results_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("[bench] wrote %s\n", path.c_str());
    return path;
  }

 private:
  std::string bench_name_;
  std::vector<JsonResult> results_;
};

struct BenchSettings {
  int32_t epochs;
  int64_t train_samples;
  int64_t eval_samples;
  int64_t dm;
  uint64_t seed;
};

inline BenchSettings DefaultSettings() {
  BenchSettings s;
  s.epochs = static_cast<int32_t>(common::EnvInt("TSPN_BENCH_EPOCHS", 3));
  s.train_samples = common::EnvInt("TSPN_BENCH_TRAIN_SAMPLES", 320);
  s.eval_samples = common::EnvInt("TSPN_BENCH_EVAL_SAMPLES", 150);
  s.dm = common::EnvInt("TSPN_BENCH_DM", 32);
  s.seed = static_cast<uint64_t>(common::EnvInt("TSPN_BENCH_SEED", 17));
  return s;
}

inline eval::TrainOptions MakeTrainOptions(const BenchSettings& s,
                                           float lr = 3e-3f) {
  eval::TrainOptions options;
  options.epochs = s.epochs;
  options.max_samples_per_epoch = s.train_samples;
  options.lr = lr;
  options.seed = s.seed;
  return options;
}

inline std::shared_ptr<data::CityDataset> MakeDataset(data::CityProfile profile) {
  profile = profile.Scaled(common::BenchScale());
  common::Stopwatch watch;
  auto dataset = data::CityDataset::Generate(profile);
  std::printf("[setup] %s: %lld check-ins, %lld POIs, %lld users, %lld tiles "
              "(%.1fs)\n",
              profile.name.c_str(),
              static_cast<long long>(dataset->TotalCheckins()),
              static_cast<long long>(dataset->pois().size()),
              static_cast<long long>(dataset->users().size()),
              static_cast<long long>(dataset->quadtree().NumTiles()),
              watch.ElapsedSeconds());
  return dataset;
}

inline core::TspnRaConfig MakeTspnConfig(const data::CityDataset& dataset,
                                         const BenchSettings& s) {
  core::TspnRaConfig config;
  config.dm = s.dm;
  config.top_k_tiles = dataset.profile().top_k_tiles;
  config.seed = s.seed;
  return config;
}

/// Trains a model and evaluates it on the test split.
inline eval::RankingMetrics TrainAndEvaluate(eval::NextPoiModel& model,
                                             const data::CityDataset& dataset,
                                             const BenchSettings& s, float lr) {
  common::Stopwatch watch;
  model.Train(MakeTrainOptions(s, lr));
  eval::RankingMetrics metrics = eval::EvaluateModel(
      model, dataset, data::Split::kTest, s.eval_samples, s.seed);
  std::fprintf(stderr, "  [%s] trained+evaluated in %.1fs\n",
               model.name().c_str(), watch.ElapsedSeconds());
  return metrics;
}

/// One row of a Table II/III-style results table.
inline std::vector<std::string> MetricsRow(const std::string& name,
                                           const eval::RankingMetrics& m) {
  using common::TablePrinter;
  return {name,
          TablePrinter::Metric(m.RecallAt(5)),
          TablePrinter::Metric(m.RecallAt(10)),
          TablePrinter::Metric(m.RecallAt(20)),
          TablePrinter::Metric(m.NdcgAt(5)),
          TablePrinter::Metric(m.NdcgAt(10)),
          TablePrinter::Metric(m.NdcgAt(20)),
          TablePrinter::Metric(m.Mrr())};
}

inline std::vector<std::string> MetricsHeader(const std::string& first) {
  return {first,    "Recall@5", "Recall@10", "Recall@20",
          "NDCG@5", "NDCG@10",  "NDCG@20",   "MRR"};
}

/// Runs the full model line-up (10 baselines + TSPN-RA) on one dataset and
/// prints the paper-style comparison table.
inline void RunComparisonTable(const std::string& title,
                               std::shared_ptr<data::CityDataset> dataset,
                               const BenchSettings& s) {
  common::TablePrinter table(MetricsHeader("Model"));
  eval::ModelOptions options;
  options.dm = s.dm;
  options.seed = s.seed;
  for (const std::string& name : baselines::BaselineNames()) {
    auto model = eval::ModelRegistry::Global().Create(name, dataset, options);
    TSPN_CHECK(model != nullptr) << "unknown baseline: " << name;
    eval::RankingMetrics m = TrainAndEvaluate(*model, *dataset, s, 5e-3f);
    table.AddRow(MetricsRow(name, m));
  }
  core::TspnRa tspn(dataset, MakeTspnConfig(*dataset, s));
  // The two-step ArcFace objective sees fewer negatives per sample than the
  // baselines' full softmax, so TSPN-RA gets a proportionally larger sample
  // budget (all models remain far below convergence; see EXPERIMENTS.md).
  BenchSettings tspn_settings = s;
  tspn_settings.train_samples = s.train_samples * 2;
  tspn_settings.epochs = s.epochs + 2;
  eval::RankingMetrics m = TrainAndEvaluate(tspn, *dataset, tspn_settings, 3e-3f);
  table.AddRow(MetricsRow("TSPN-RA", m));
  std::printf("\n== %s ==\n", title.c_str());
  table.Print();
}

}  // namespace tspn::bench

#endif  // TSPN_BENCH_BENCH_COMMON_H_
