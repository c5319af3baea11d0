// Serving smoke benchmark (tools/bench_smoke.sh): trains a small LightLT
// stack on a synthetic preset, drives a query load through
// RetrievalService, and writes the registry-derived throughput and latency
// figures as one JSON object (BENCH_serving.json). All numbers come from
// the observability subsystem itself — the same histograms an operator
// scrapes via MetricsRegistry::RenderText — so the bench doubles as an
// end-to-end check of the metrics wiring.
//
// With --shards=N (optionally --replicas=R) the same load additionally runs
// through a ClusterService over the same model and database — scatter-gather
// across N shards with R replicas each — and the JSON gains a "cluster_*"
// block plus one per-shard row (items, scanned items across replicas), so
// the sharded path's overhead is benchmarked against the single-node one.
//
//   ./tool_bench_serving --out=BENCH_serving.json [--seed=7] [--repeat=5]
//       [--epochs=4] [--cells=32] [--nprobe=8] [--ivf=true]
//       [--shadow_max_in_flight=16] [--shards=0] [--replicas=2]
//       [--metrics_jsonl=metrics.jsonl] [--render]

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/lightlt.h"
#include "src/net/client.h"
#include "src/net/fleet.h"
#include "src/net/server.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/serving/router.h"
#include "src/serving/transport.h"
#include "src/util/cli.h"
#include "src/util/timer.h"

using namespace lightlt;

int main(int argc, char** argv) {
  CommandLine cli(argc, argv);
  const uint64_t seed = cli.GetInt("seed", 7);
  const int repeat = static_cast<int>(cli.GetInt("repeat", 5));
  const int epochs = static_cast<int>(cli.GetInt("epochs", 4));
  const size_t cells = static_cast<size_t>(cli.GetInt("cells", 32));
  const size_t nprobe = static_cast<size_t>(cli.GetInt("nprobe", 8));
  const bool use_ivf = cli.GetBool("ivf", true);
  const double shadow_rate = cli.GetDouble("shadow_rate", 0.25);
  const size_t shadow_max_in_flight =
      static_cast<size_t>(cli.GetInt("shadow_max_in_flight", 16));
  const size_t shards = static_cast<size_t>(cli.GetInt("shards", 0));
  const size_t replicas = static_cast<size_t>(cli.GetInt("replicas", 2));
  const std::string out = cli.GetString("out", "BENCH_serving.json");
  const std::string jsonl = cli.GetString("metrics_jsonl", "");

  const auto bench =
      data::GeneratePreset(data::PresetId::kQbaish, 100.0, false, seed);

  auto metrics = std::make_shared<obs::MetricsRegistry>();
  auto model_cfg = core::DefaultModelConfig(bench);
  auto train_cfg = core::DefaultTrainOptions(data::PresetId::kQbaish);
  train_cfg.epochs = epochs;  // throughput, not retrieval quality
  train_cfg.metrics = metrics.get();
  auto model = std::make_shared<core::LightLtModel>(model_cfg, seed);
  std::printf("training encoder (%d epochs)...\n", epochs);
  if (!core::TrainLightLt(model.get(), bench.train, train_cfg).ok()) {
    std::fprintf(stderr, "training failed\n");
    return 1;
  }

  serving::ServiceOptions opts;
  opts.metrics = metrics;
  if (use_ivf) {
    opts.use_ivf = true;
    opts.ivf.num_cells = cells;
    opts.ivf.nprobe = nprobe;
  }
  if (shadow_rate > 0.0) {
    // Shadow-verify a fraction of served queries against the exact index so
    // the bench reports live recall@10 next to throughput — the number the
    // bench gate holds steady across runs.
    opts.shadow.sample_rate = shadow_rate;
    opts.shadow.seed = seed;
    opts.shadow.recall_k = 10;
    opts.shadow.max_in_flight = shadow_max_in_flight;
    opts.shadow.pool = &GlobalThreadPool();
  }
  auto built =
      serving::RetrievalService::Build(model, bench.database.features, opts);
  if (!built.ok()) {
    std::fprintf(stderr, "service build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  const serving::RetrievalService& service = built.value();
  std::printf("serving %zu queries x %d rounds over %zu items...\n",
              bench.query.features.rows(), repeat, service.num_items());

  WallTimer wall;
  size_t rows_served = 0;
  for (int r = 0; r < repeat; ++r) {
    auto results =
        service.QueryBatch(bench.query.features, 10, &GlobalThreadPool());
    if (!results.ok()) {
      std::fprintf(stderr, "QueryBatch failed: %s\n",
                   results.status().ToString().c_str());
      return 1;
    }
    for (const auto& row : results.value()) {
      if (row.ok()) ++rows_served;
    }
  }
  const double seconds = wall.ElapsedSeconds();

  const auto latency =
      metrics
          ->GetHistogram(obs::WithLabel("serving_latency_seconds", "outcome",
                                        "served"))
          ->Snapshot();
  double scanned_fraction = 1.0;  // flat ADC scans everything
  if (use_ivf) {
    const auto sf = metrics->GetHistogram("ivf_scanned_fraction")->Snapshot();
    if (sf.count > 0) scanned_fraction = sf.Mean();
  }
  const auto stats = service.Stats();
  const double qps =
      seconds > 0.0 ? static_cast<double>(rows_served) / seconds : 0.0;
  double shadow_recall = -1.0;  // -1 = shadow sampling off
  size_t shadow_samples = 0;
  if (service.Shadow() != nullptr) {
    service.Shadow()->Flush();
    const auto overall = service.Shadow()->estimator().Snapshot(0);
    shadow_recall = overall.recall.center;
    shadow_samples = overall.queries;
  }

  // Profiler-overhead scenario (DESIGN.md §16): the same single-node load
  // timed per query with the sampler off vs running at its default 100 Hz
  // cadence, so the JSON carries the measured p95 cost of continuous
  // profiling and the gate can hold it under budget. Two measurement
  // disciplines keep the comparison honest on small hosts:
  //  * a dedicated shadow-free service — shadow re-runs queue heavy exact
  //    searches on the pool, and on a one-core host any change in thread
  //    wakeup cadence (such as the sampler's) reshuffles when those slices
  //    preempt the query loop, drowning the profiler's real cost in
  //    scheduler noise that belongs to neither side of the comparison;
  //  * interleaved off/on pairs with the overhead taken as the median of
  //    per-pair p95 deltas — adjacent passes see the same machine state,
  //    so drift (frequency scaling, page-cache warmup) cancels per pair,
  //    and the median discards a pair that caught a one-off stall.
  // Runs after the registry snapshots above, so the reported latency keys
  // stay clean.
  serving::ServiceOptions ovh_opts = opts;
  ovh_opts.metrics = nullptr;
  ovh_opts.shadow = serving::ShadowOptions{};
  auto ovh_built =
      serving::RetrievalService::Build(model, bench.database.features,
                                       ovh_opts);
  if (!ovh_built.ok()) {
    std::fprintf(stderr, "overhead service build failed: %s\n",
                 ovh_built.status().ToString().c_str());
    return 1;
  }
  const serving::RetrievalService& ovh_service = ovh_built.value();
  auto timed_pass = [&](std::vector<double>* lat) {
    for (int r = 0; r < repeat; ++r) {
      for (size_t q = 0; q < bench.query.features.rows(); ++q) {
        WallTimer one;
        (void)ovh_service.Query(bench.query.features.RowCopy(q), 10);
        lat->push_back(one.ElapsedSeconds());
      }
    }
  };
  auto exact_p95 = [](std::vector<double>* lat) {
    if (lat->empty()) return 0.0;
    std::sort(lat->begin(), lat->end());
    return (*lat)[static_cast<size_t>(0.95 * (lat->size() - 1))];
  };
  std::printf("profiler overhead: interleaved off/on passes...\n");
  obs::Profiler profiler;  // default cadence — what a service would run
  const int kOverheadPairs = 5;
  {
    std::vector<double> warmup;  // untimed-for-the-record warmup pass
    timed_pass(&warmup);
  }
  std::vector<double> off_p95s, on_p95s, overhead_pcts;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    std::vector<double> off_lat, on_lat;
    timed_pass(&off_lat);
    (void)profiler.Start();
    timed_pass(&on_lat);
    profiler.Stop();
    const double off = exact_p95(&off_lat);
    const double on = exact_p95(&on_lat);
    off_p95s.push_back(off);
    on_p95s.push_back(on);
    overhead_pcts.push_back(off > 0.0 ? 100.0 * (on - off) / off : 0.0);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double profiler_off_p95 = median(off_p95s);
  const double profiler_on_p95 = median(on_p95s);
  const double profiler_overhead_pct = median(overhead_pcts);
  std::printf("profiler overhead: p95 off %.4fms on %.4fms (%+.2f%%), "
              "%llu samples taken\n",
              profiler_off_p95 * 1e3, profiler_on_p95 * 1e3,
              profiler_overhead_pct,
              static_cast<unsigned long long>(profiler.samples_total()));

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\"queries\": %zu, \"wall_seconds\": %.6f, \"qps\": %.1f,\n"
               " \"latency_ms\": {\"mean\": %.4f, \"p50\": %.4f, "
               "\"p95\": %.4f, \"p99\": %.4f},\n"
               " \"scanned_fraction\": %.4f, \"ivf\": %s,\n"
               " \"shadow_recall\": %.4f, \"shadow_samples\": %zu,\n"
               " \"served\": %llu, \"shed\": %llu, \"failed\": %llu, "
               "\"flat_fallbacks\": %llu",
               rows_served, seconds, qps, latency.Mean() * 1e3,
               latency.Quantile(0.50) * 1e3, latency.Quantile(0.95) * 1e3,
               latency.Quantile(0.99) * 1e3, scanned_fraction,
               use_ivf ? "true" : "false", shadow_recall, shadow_samples,
               static_cast<unsigned long long>(stats.served),
               static_cast<unsigned long long>(stats.shed),
               static_cast<unsigned long long>(stats.failed),
               static_cast<unsigned long long>(stats.flat_fallbacks));
  std::fprintf(f,
               ",\n \"profiler_off_p95_ms\": %.4f, "
               "\"profiler_on_p95_ms\": %.4f,\n"
               " \"profiler_overhead_pct\": %.2f",
               profiler_off_p95 * 1e3, profiler_on_p95 * 1e3,
               profiler_overhead_pct);

  // Sharded scenario: the same load through a ClusterService over the same
  // model and corpus. Appended after the single-node keys so the bench
  // gate's first-occurrence extraction keeps reading the single-node run.
  if (shards > 0) {
    serving::ClusterOptions copts;
    copts.num_shards = shards;
    copts.num_replicas = replicas;
    if (use_ivf) {
      copts.searcher.use_ivf = true;
      copts.searcher.ivf.num_cells = cells;
      copts.searcher.ivf.nprobe = nprobe;
    }
    copts.router.pool = &GlobalThreadPool();
    auto cluster_built = serving::ClusterService::Build(
        model, bench.database.features, copts);
    if (!cluster_built.ok()) {
      std::fprintf(stderr, "cluster build failed: %s\n",
                   cluster_built.status().ToString().c_str());
      std::fclose(f);
      return 1;
    }
    const serving::ClusterService& cluster = cluster_built.value();
    std::printf("cluster: %zu shards x %zu replicas, same load...\n", shards,
                replicas);

    WallTimer cluster_wall;
    size_t cluster_served = 0;
    for (int r = 0; r < repeat; ++r) {
      for (size_t q = 0; q < bench.query.features.rows(); ++q) {
        auto res = cluster.Query(bench.query.features.RowCopy(q), 10);
        if (res.ok()) ++cluster_served;
      }
    }
    const double cluster_seconds = cluster_wall.ElapsedSeconds();
    const double cluster_qps =
        cluster_seconds > 0.0
            ? static_cast<double>(cluster_served) / cluster_seconds
            : 0.0;
    const auto cluster_latency =
        cluster.Metrics()
            .GetHistogram(obs::WithLabel("cluster_latency_seconds", "outcome",
                                         "served"))
            ->Snapshot();
    const auto cstats = cluster.Stats();
    const double coverage_mean =
        cstats.coverage.count > 0 ? cstats.coverage.Mean() : 0.0;

    std::fprintf(f,
                 ",\n \"cluster_shards\": %zu, \"cluster_replicas\": %zu,\n"
                 " \"cluster_qps\": %.1f, \"cluster_p95_ms\": %.4f,\n"
                 " \"cluster_coverage_mean\": %.4f, \"cluster_failovers\": "
                 "%llu,\n"
                 " \"cluster_per_shard\": [",
                 shards, replicas, cluster_qps,
                 cluster_latency.Quantile(0.95) * 1e3, coverage_mean,
                 static_cast<unsigned long long>(cstats.failovers));
    for (size_t s = 0; s < shards; ++s) {
      uint64_t scan_items = 0;
      for (size_t r = 0; r < replicas; ++r) {
        // Flat and IVF replica scans count items under separate instruments.
        const std::string rp =
            "cluster_s" + std::to_string(s) + "_r" + std::to_string(r) + "_";
        scan_items +=
            cluster.Metrics().GetCounter(rp + "adc_scan_items_total")->Value();
        scan_items +=
            cluster.Metrics().GetCounter(rp + "ivf_scan_items_total")->Value();
      }
      std::fprintf(f, "%s{\"shard\": %zu, \"items\": %zu, \"scan_items\": %llu}",
                   s == 0 ? "" : ", ", s, cluster.shards().shard_items(s),
                   static_cast<unsigned long long>(scan_items));
      std::printf("  shard %zu: %zu items, %llu scanned across %zu replicas\n",
                  s, cluster.shards().shard_items(s),
                  static_cast<unsigned long long>(scan_items), replicas);
    }
    std::fprintf(f, "]");
    std::printf(
        "cluster: %.0f qps  p95 %.2fms  coverage %.3f  failovers %llu\n",
        cluster_qps, cluster_latency.Quantile(0.95) * 1e3, coverage_mean,
        static_cast<unsigned long long>(cstats.failovers));
  }

  // Remote scenario: the same load over real loopback sockets — one
  // in-process ShardServer per shard, a RemoteTransport client grid, and
  // the standard Router — so the JSON carries the wire overhead of the
  // out-of-process path next to the in-process numbers.
  const size_t remote_shards =
      static_cast<size_t>(cli.GetInt("remote_shards", 0));
  if (remote_shards > 0) {
    const Matrix embedded =
        core::EmbedInChunks(*model, bench.database.features);
    std::vector<std::vector<uint32_t>> codes;
    model->dsq().Encode(embedded, &codes);
    serving::ShardSetOptions sopts;
    sopts.num_shards = remote_shards;
    sopts.num_replicas = 1;
    auto shard_built = serving::ShardSet::Build(embedded, model->Codebooks(),
                                                codes, sopts);
    if (!shard_built.ok()) {
      std::fprintf(stderr, "remote shard build failed: %s\n",
                   shard_built.status().ToString().c_str());
      std::fclose(f);
      return 1;
    }
    auto shard_set = std::make_shared<serving::ShardSet>(
        std::move(shard_built).value());

    std::vector<std::unique_ptr<obs::MetricsRegistry>> server_metrics;
    std::vector<std::unique_ptr<net::ShardServer>> servers;
    std::vector<std::vector<net::Endpoint>> endpoints(remote_shards);
    std::vector<net::FleetEndpoint> fleet_endpoints;
    for (size_t s = 0; s < remote_shards; ++s) {
      server_metrics.push_back(std::make_unique<obs::MetricsRegistry>());
      net::ShardServerOptions so;
      so.hosted_shards = {s};
      // Per-server registry + admin listener: the fleet collector below
      // pulls each shard's latency histogram out of band after the load.
      so.metrics = server_metrics.back().get();
      so.admin_listener = true;
      auto server = std::make_unique<net::ShardServer>(shard_set, so);
      const Status started = server->Start();
      if (!started.ok()) {
        std::fprintf(stderr, "remote server start failed: %s\n",
                     started.ToString().c_str());
        std::fclose(f);
        return 1;
      }
      endpoints[s] = {{"127.0.0.1", server->port()}};
      fleet_endpoints.push_back(
          {{"127.0.0.1", server->admin_port()}, static_cast<uint32_t>(s), 0});
      servers.push_back(std::move(server));
    }
    auto remote = net::RemoteTransport::Connect(endpoints, {},
                                                Deadline::After(5.0));
    if (!remote.ok()) {
      std::fprintf(stderr, "remote connect failed: %s\n",
                   remote.status().ToString().c_str());
      std::fclose(f);
      return 1;
    }
    auto remote_health = std::make_shared<serving::ReplicaHealthMonitor>(
        remote_shards, 1, serving::HealthOptions{});
    serving::Router remote_router(remote.value(), remote_health,
                                  serving::RouterOptions{});
    std::printf("remote: %zu loopback shard servers, same load...\n",
                remote_shards);

    const Matrix remote_queries = model->Embed(bench.query.features);
    std::vector<double> remote_latencies;
    remote_latencies.reserve(remote_queries.rows() * repeat);
    WallTimer remote_wall;
    size_t remote_served = 0;
    double coverage_sum = 0.0;
    for (int r = 0; r < repeat; ++r) {
      for (size_t q = 0; q < remote_queries.rows(); ++q) {
        WallTimer one;
        const serving::RoutedResult res = remote_router.Search(
            remote_queries.row(q), 10, Deadline::After(2.0), {}, nullptr,
            nullptr);
        remote_latencies.push_back(one.ElapsedSeconds());
        if (res.status.ok()) {
          ++remote_served;
          coverage_sum += res.coverage;
        }
      }
    }
    const double remote_seconds = remote_wall.ElapsedSeconds();
    const double remote_qps =
        remote_seconds > 0.0
            ? static_cast<double>(remote_served) / remote_seconds
            : 0.0;
    std::sort(remote_latencies.begin(), remote_latencies.end());
    const double remote_p95 =
        remote_latencies.empty()
            ? 0.0
            : remote_latencies[static_cast<size_t>(
                  0.95 * (remote_latencies.size() - 1))];

    uint64_t frames_sent = 0, frames_received = 0, wire_errors = 0;
    uint64_t reconnects = 0;
    for (const auto& server : servers) {
      const net::ShardServerStats ss = server->stats();
      frames_sent += ss.frames_sent;
      frames_received += ss.frames_received;
      wire_errors += ss.wire_errors;
    }
    for (size_t s = 0; s < remote_shards; ++s) {
      reconnects += remote.value()->client(s, 0).stats().reconnects;
    }

    // Fleet view: one poll over every server's admin plane, then the
    // per-shard server-side latency breakdown plus the fleet-wide merged
    // histogram — the numbers an operator would scrape in production.
    net::FleetCollector fleet(fleet_endpoints, net::FleetCollectorOptions{});
    const Status polled = fleet.PollOnce();
    if (!polled.ok()) {
      std::fprintf(stderr, "fleet poll failed: %s\n",
                   polled.ToString().c_str());
    }
    const net::FleetView fleet_view = fleet.View();
    std::fprintf(f, ",\n \"remote_per_shard\": [");
    const char* kServerHist = "net_server_request_seconds";
    for (size_t s = 0; s < fleet_view.members.size(); ++s) {
      const net::FleetMemberView& m = fleet_view.members[s];
      obs::HistogramSnapshot lat;
      for (const auto& h : m.snapshot.histograms) {
        if (h.name == kServerHist) lat = h.snapshot;
      }
      std::fprintf(f,
                   "%s{\"shard\": %u, \"requests\": %llu, "
                   "\"server_p50_ms\": %.4f, \"server_p95_ms\": %.4f}",
                   s == 0 ? "" : ", ", m.shard,
                   static_cast<unsigned long long>(lat.count),
                   lat.Quantile(0.50) * 1e3, lat.Quantile(0.95) * 1e3);
      std::printf("  shard %u: %llu server requests, p50 %.2fms p95 %.2fms\n",
                  m.shard, static_cast<unsigned long long>(lat.count),
                  lat.Quantile(0.50) * 1e3, lat.Quantile(0.95) * 1e3);
    }
    obs::HistogramSnapshot fleet_lat;
    const auto merged_it = fleet_view.merged.find(kServerHist);
    if (merged_it != fleet_view.merged.end()) fleet_lat = merged_it->second;
    std::fprintf(f,
                 "],\n \"remote_fleet_requests\": %llu, "
                 "\"remote_fleet_server_p95_ms\": %.4f",
                 static_cast<unsigned long long>(fleet_lat.count),
                 fleet_lat.Quantile(0.95) * 1e3);
    std::printf("  fleet: %llu server requests merged, p95 %.2fms\n",
                static_cast<unsigned long long>(fleet_lat.count),
                fleet_lat.Quantile(0.95) * 1e3);

    for (auto& server : servers) server->Drain();

    std::fprintf(f,
                 ",\n \"remote_shards\": %zu, \"remote_qps\": %.1f,\n"
                 " \"remote_p95_ms\": %.4f, \"remote_served\": %zu,\n"
                 " \"remote_coverage_mean\": %.4f,\n"
                 " \"remote_frames_sent\": %llu, \"remote_frames_received\": "
                 "%llu,\n"
                 " \"remote_wire_errors\": %llu, \"remote_reconnects\": %llu",
                 remote_shards, remote_qps, remote_p95 * 1e3, remote_served,
                 remote_served > 0 ? coverage_sum / remote_served : 0.0,
                 static_cast<unsigned long long>(frames_sent),
                 static_cast<unsigned long long>(frames_received),
                 static_cast<unsigned long long>(wire_errors),
                 static_cast<unsigned long long>(reconnects));
    std::printf("remote: %.0f qps  p95 %.2fms  served %zu  wire errors "
                "%llu\n",
                remote_qps, remote_p95 * 1e3, remote_served,
                static_cast<unsigned long long>(wire_errors));
  }
  std::fprintf(f, "}\n");
  std::fclose(f);

  if (!jsonl.empty()) {
    const Status dumped = metrics->WriteJsonl(jsonl);
    if (!dumped.ok()) {
      std::fprintf(stderr, "metrics dump failed: %s\n",
                   dumped.ToString().c_str());
      return 1;
    }
  }
  if (cli.GetBool("render", false)) {
    std::printf("%s", metrics->RenderText().c_str());
  }
  std::printf(
      "%.0f qps  p50 %.2fms  p95 %.2fms  p99 %.2fms  scanned %.1f%%  "
      "shadow recall %.3f (%zu samples)  -> %s\n",
      qps, latency.Quantile(0.50) * 1e3, latency.Quantile(0.95) * 1e3,
      latency.Quantile(0.99) * 1e3, 100.0 * scanned_fraction, shadow_recall,
      shadow_samples, out.c_str());
  return 0;
}
