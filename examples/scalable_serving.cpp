// Scalable serving walkthrough: the RetrievalService facade with IVF
// acceleration — how a production deployment would wrap a trained LightLT
// model for large databases.
//
//   ./example_scalable_serving [--seed=7] [--cells=64] [--nprobe=8]

#include <cstdio>

#include "src/lightlt.h"
#include "src/util/cli.h"
#include "src/util/timer.h"

using namespace lightlt;

int main(int argc, char** argv) {
  CommandLine cli(argc, argv);
  const uint64_t seed = cli.GetInt("seed", 7);
  const size_t cells = static_cast<size_t>(cli.GetInt("cells", 64));
  const size_t nprobe = static_cast<size_t>(cli.GetInt("nprobe", 8));

  std::printf("== Scalable serving with RetrievalService ==\n\n");
  const auto bench =
      data::GeneratePreset(data::PresetId::kQbaish, 100.0, false, seed);

  auto model_cfg = core::DefaultModelConfig(bench);
  auto train_cfg = core::DefaultTrainOptions(data::PresetId::kQbaish);
  train_cfg.epochs = 8;  // quality is secondary to the serving demo
  auto model = std::make_shared<core::LightLtModel>(model_cfg, seed);
  std::printf("Training the query/database encoder...\n");
  if (!core::TrainLightLt(model.get(), bench.train, train_cfg).ok()) {
    std::fprintf(stderr, "training failed\n");
    return 1;
  }

  // Plain exhaustive-ADC service vs IVF-accelerated service.
  serving::ServiceOptions plain_opts;
  auto plain =
      serving::RetrievalService::Build(model, bench.database.features,
                                       plain_opts);
  serving::ServiceOptions ivf_opts;
  ivf_opts.use_ivf = true;
  ivf_opts.ivf.num_cells = cells;
  ivf_opts.ivf.nprobe = nprobe;
  auto fast = serving::RetrievalService::Build(
      model, bench.database.features, ivf_opts);
  if (!plain.ok() || !fast.ok()) {
    std::fprintf(stderr, "service build failed\n");
    return 1;
  }
  std::printf("Database: %zu items; IVF: %zu cells, nprobe=%zu "
              "(~%.0f%% of the database scanned per query)\n\n",
              plain.value().num_items(), cells, nprobe,
              100.0 * static_cast<double>(nprobe) /
                  static_cast<double>(cells));

  auto run = [&](const serving::RetrievalService& service,
                 const char* label) {
    WallTimer timer;
    auto results = service.QueryBatch(bench.query.features, 10,
                                      &GlobalThreadPool());
    const double ms = timer.ElapsedMillis();
    if (!results.ok()) {
      std::fprintf(stderr, "%s failed\n", label);
      return;
    }
    size_t hit = 0;
    for (size_t q = 0; q < results.value().size(); ++q) {
      const auto& row = results.value()[q];
      if (!row.ok()) continue;
      for (const auto& h : row.value()) {
        if (bench.database.labels[h.id] == bench.query.labels[q]) {
          ++hit;
          break;
        }
      }
    }
    std::printf("%-22s  %6.1f ms for %zu queries  hit@10 %.1f%%\n", label,
                ms, results.value().size(),
                100.0 * static_cast<double>(hit) /
                    static_cast<double>(results.value().size()));
  };

  run(plain.value(), "exhaustive ADC");
  run(fast.value(), "IVF");

  std::printf(
      "\nThe IVF service answers from a fraction of the database with near-"
      "identical\nhit rate.\n");
  return 0;
}
