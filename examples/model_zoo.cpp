// Model zoo: train a selection of next-POI models on one synthetic city and
// print a side-by-side comparison — a miniature of the paper's Table II.
//
//   ./build/examples/model_zoo [epochs]

#include <cstdio>
#include <cstdlib>

#include "common/table_printer.h"
#include "core/tspn_ra.h"
#include "eval/metrics.h"
#include "eval/model_registry.h"

int main(int argc, char** argv) {
  using namespace tspn;
  int32_t epochs = argc > 1 ? std::atoi(argv[1]) : 3;

  auto dataset = data::CityDataset::Generate(data::CityProfile::TestTiny());
  eval::TrainOptions options;
  options.epochs = epochs;
  options.max_samples_per_epoch = 192;

  eval::ModelOptions model_options;
  model_options.dm = 32;
  model_options.seed = 7;
  common::TablePrinter table({"Model", "Recall@5", "Recall@10", "MRR"});
  for (const std::string& name :
       {std::string("MC"), std::string("GRU"), std::string("DeepMove"),
        std::string("Graph-Flashback")}) {
    auto model =
        eval::ModelRegistry::Global().Create(name, dataset, model_options);
    if (model == nullptr) {
      std::fprintf(stderr, "unknown model: %s\n", name.c_str());
      return 1;
    }
    model->Train(options);
    eval::RankingMetrics m =
        eval::EvaluateModel(*model, *dataset, data::Split::kTest, 120, 3);
    table.AddRow({name, common::TablePrinter::Metric(m.RecallAt(5)),
                  common::TablePrinter::Metric(m.RecallAt(10)),
                  common::TablePrinter::Metric(m.Mrr())});
  }
  core::TspnRaConfig config;
  config.dm = 32;
  config.image_resolution = 16;
  config.top_k_tiles = dataset->profile().top_k_tiles;
  core::TspnRa tspn(dataset, config);
  tspn.Train(options);
  eval::RankingMetrics m =
      eval::EvaluateModel(tspn, *dataset, data::Split::kTest, 120, 3);
  table.AddRow({"TSPN-RA", common::TablePrinter::Metric(m.RecallAt(5)),
                common::TablePrinter::Metric(m.RecallAt(10)),
                common::TablePrinter::Metric(m.Mrr())});

  std::printf("Model comparison on '%s' (%d epochs each):\n\n",
              dataset->profile().name.c_str(), epochs);
  table.Print();
  return 0;
}
