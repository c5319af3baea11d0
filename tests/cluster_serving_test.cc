// Cluster serving chaos harness (DESIGN.md §13): sharded scatter-gather
// with replica health, failover and partial-result degradation. Drives the
// ReplicaHealthMonitor state machine on a manual clock, proves the router's
// 1-vs-N merge is bit-identical when healthy, kills replicas and whole
// shards with deterministic ChaosPlan rules asserting exact ClusterStats
// counters, hammers the stack concurrently for the TSan preset, and pins
// the phase names of traced single-node and cluster queries. Built as its
// own ctest target with the `cluster` label (tools/run_chaos.sh).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "src/core/trainer.h"
#include "src/data/dataset.h"
#include "src/serving/router.h"
#include "src/serving/service.h"
#include "src/util/chaos.h"
#include "src/util/deadline.h"

namespace lightlt::serving {
namespace {

struct ServiceFixture {
  data::RetrievalBenchmark bench;
  std::shared_ptr<core::LightLtModel> model;
};

ServiceFixture MakeFixture() {
  data::SyntheticConfig cfg;
  cfg.num_classes = 5;
  cfg.feature_dim = 16;
  cfg.train_spec.num_classes = 5;
  cfg.train_spec.head_size = 40;
  cfg.train_spec.imbalance_factor = 8.0;
  cfg.queries_per_class = 4;
  cfg.database_per_class = 30;
  cfg.class_separation = 3.0f;
  cfg.nuisance_scale = 0.3f;
  cfg.seed = 444;

  ServiceFixture f;
  f.bench = data::GenerateSynthetic(cfg);

  core::ModelConfig mc;
  mc.input_dim = 16;
  mc.hidden_dims = {24};
  mc.embed_dim = 12;
  mc.num_classes = 5;
  mc.dsq.num_codebooks = 2;
  mc.dsq.num_codewords = 16;
  f.model = std::make_shared<core::LightLtModel>(mc, 3);

  core::TrainOptions opts;
  opts.epochs = 6;
  opts.learning_rate = 3e-3f;
  auto stats = core::TrainLightLt(f.model.get(), f.bench.train, opts);
  EXPECT_TRUE(stats.ok());
  return f;
}

/// RAII disarm so a failing assertion can't leak an armed plan into the
/// next test.
struct ChaosGuard {
  ~ChaosGuard() { DisarmChaos(); }
};

/// Dumps the cluster's metrics registry to stderr when the enclosing test
/// fails (gated on LIGHTLT_CHAOS_DUMP_METRICS, set by tools/run_chaos.sh).
struct MetricsDumpOnFailure {
  const ClusterService* cluster = nullptr;
  ~MetricsDumpOnFailure() {
    if (cluster != nullptr && ::testing::Test::HasFailure() &&
        std::getenv("LIGHTLT_CHAOS_DUMP_METRICS") != nullptr) {
      std::fprintf(stderr, "---- metrics registry at failure ----\n%s",
                   cluster->Metrics().RenderText().c_str());
    }
  }
};

uint64_t TotalOutcomes(const ClusterStats& s) {
  return s.served + s.partial + s.shed + s.expired + s.cancelled + s.failed;
}

// ---------------------------------------------------------------------------
// Health state machine
// ---------------------------------------------------------------------------

TEST(ReplicaHealthTest, StateMachineWalkOnManualClock) {
  double now = 0.0;
  HealthOptions opts;
  opts.failures_to_suspect = 1;
  opts.failures_to_down = 3;
  opts.successes_to_recover = 2;
  opts.down_cooldown_seconds = 5.0;
  opts.probe_budget = 1;
  opts.slow_latency_seconds = 0.1;
  opts.clock = [&now] { return now; };
  ReplicaHealthMonitor m(1, 2, opts);

  // HEALTHY -> SUSPECT on the first failure.
  EXPECT_EQ(m.state(0, 0), ReplicaHealth::kHealthy);
  EXPECT_TRUE(m.BeginAttempt(0, 0));
  m.RecordFailure(0, 0);
  EXPECT_EQ(m.state(0, 0), ReplicaHealth::kSuspect);

  // A slow success is a failure signal: the streak keeps growing.
  EXPECT_TRUE(m.BeginAttempt(0, 0));
  m.RecordSuccess(0, 0, /*latency_seconds=*/0.5);
  EXPECT_EQ(m.state(0, 0), ReplicaHealth::kSuspect);

  // Third failure signal in a row: SUSPECT -> DOWN.
  EXPECT_TRUE(m.BeginAttempt(0, 0));
  m.RecordFailure(0, 0);
  EXPECT_EQ(m.state(0, 0), ReplicaHealth::kDown);
  EXPECT_FALSE(m.BeginAttempt(0, 0));
  EXPECT_TRUE(m.ShardServable(0));  // replica 1 is still healthy
  std::vector<size_t> c = m.Candidates(0);
  ASSERT_EQ(c.size(), 1u);  // the DOWN replica is excluded entirely
  EXPECT_EQ(c[0], 1u);

  // DOWN holds through the cooldown, then promotes lazily to PROBING.
  now = 4.9;
  EXPECT_EQ(m.state(0, 0), ReplicaHealth::kDown);
  now = 5.0;
  EXPECT_EQ(m.state(0, 0), ReplicaHealth::kProbing);

  // Probe budget: one concurrent probe; an abandoned probe frees the slot
  // without a verdict.
  EXPECT_TRUE(m.BeginAttempt(0, 0));
  EXPECT_FALSE(m.BeginAttempt(0, 0));
  m.RecordAbandoned(0, 0);
  EXPECT_EQ(m.state(0, 0), ReplicaHealth::kProbing);

  // A failed probe goes straight back to DOWN with a fresh cooldown.
  EXPECT_TRUE(m.BeginAttempt(0, 0));
  m.RecordFailure(0, 0);
  EXPECT_EQ(m.state(0, 0), ReplicaHealth::kDown);

  // Second cooldown, then two fast successes recover the replica.
  now = 10.0;
  EXPECT_TRUE(m.BeginAttempt(0, 0));
  m.RecordSuccess(0, 0, 0.01);
  EXPECT_EQ(m.state(0, 0), ReplicaHealth::kProbing);
  EXPECT_TRUE(m.BeginAttempt(0, 0));
  m.RecordSuccess(0, 0, 0.01);
  EXPECT_EQ(m.state(0, 0), ReplicaHealth::kHealthy);

  // Every edge of the walk: suspect, down, probing, down, probing, healthy.
  EXPECT_EQ(m.transition_count(), 6u);
  EXPECT_EQ(m.timeout_count(), 0u);
}

TEST(ReplicaHealthTest, CandidatesPreferenceOrderIsDeterministic) {
  double now = 0.0;
  HealthOptions opts;
  opts.failures_to_suspect = 1;
  opts.failures_to_down = 2;
  opts.down_cooldown_seconds = 0.0;  // DOWN promotes to PROBING immediately
  opts.clock = [&now] { return now; };
  ReplicaHealthMonitor m(1, 4, opts);

  // r1 -> SUSPECT; r2 -> DOWN (-> PROBING via the zero cooldown).
  ASSERT_TRUE(m.BeginAttempt(0, 1));
  m.RecordFailure(0, 1);
  ASSERT_TRUE(m.BeginAttempt(0, 2));
  m.RecordFailure(0, 2);
  ASSERT_TRUE(m.BeginAttempt(0, 2));
  m.RecordFailure(0, 2);

  // Healthy replicas first (by index), then suspect, then probing.
  std::vector<size_t> c = m.Candidates(0);
  ASSERT_EQ(c.size(), 4u);
  EXPECT_EQ(c[0], 0u);
  EXPECT_EQ(c[1], 3u);
  EXPECT_EQ(c[2], 1u);
  EXPECT_EQ(c[3], 2u);

  // Timeouts are failure signals with their own counter.
  ASSERT_TRUE(m.BeginAttempt(0, 0));
  m.RecordTimeout(0, 0);
  EXPECT_EQ(m.state(0, 0), ReplicaHealth::kSuspect);
  EXPECT_EQ(m.timeout_count(), 1u);
}

// ---------------------------------------------------------------------------
// Circuit breaker: abandoned verdicts and concurrent half-open probes
// ---------------------------------------------------------------------------

TEST(ClusterBreakerTest, RecordAbandonedPreservesStreakAndReleasesProbe) {
  double now = 0.0;
  CircuitBreakerOptions opts;
  opts.failure_threshold = 2;
  opts.cooldown_seconds = 5.0;
  opts.half_open_successes_to_close = 1;
  opts.half_open_max_probes = 1;
  opts.clock = [&now] { return now; };
  CircuitBreaker b(opts);

  EXPECT_TRUE(b.AllowRequest());
  b.RecordFailure();  // streak 1
  EXPECT_TRUE(b.AllowRequest());
  b.RecordAbandoned();  // no verdict: streak stays 1, state stays closed
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_TRUE(b.AllowRequest());
  b.RecordFailure();  // streak 2 -> open (abandoned did NOT reset it)
  EXPECT_EQ(b.state(), BreakerState::kOpen);

  now = 5.0;
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(b.AllowRequest());   // probe slot 1/1
  EXPECT_FALSE(b.AllowRequest());  // probe budget exhausted
  b.RecordAbandoned();             // releases the slot, still half-open
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(b.AllowRequest());
  b.RecordSuccess();
  EXPECT_EQ(b.state(), BreakerState::kClosed);
}

TEST(ClusterBreakerTest, ConcurrentHalfOpenProbesRespectTheBudget) {
  std::atomic<double> now{0.0};
  CircuitBreakerOptions opts;
  opts.failure_threshold = 1;
  opts.cooldown_seconds = 1.0;
  opts.half_open_max_probes = 2;
  opts.half_open_successes_to_close = 64;  // stays half-open throughout
  opts.clock = [&now] { return now.load(); };
  CircuitBreaker b(opts);

  ASSERT_TRUE(b.AllowRequest());
  b.RecordFailure();  // open
  now.store(1.0);     // cooldown elapsed

  constexpr int kThreads = 8;
  std::atomic<int> admitted{0};
  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      // Wave 1: everyone races AllowRequest; nobody records a verdict yet,
      // so the budget alone decides who got through.
      const bool got = b.AllowRequest();
      if (got) admitted.fetch_add(1);
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      // Wave 2: abandon the held probes.
      if (got) b.RecordAbandoned();
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(admitted.load(), opts.half_open_max_probes);
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(b.AllowRequest());  // abandoned probes freed their slots
  b.RecordFailure();              // one failed probe re-opens
  EXPECT_EQ(b.state(), BreakerState::kOpen);
}

// ---------------------------------------------------------------------------
// Router merge determinism
// ---------------------------------------------------------------------------

TEST(ClusterServingTest, ShardedTopKIsBitIdenticalToSingleShardAndService) {
  auto f = MakeFixture();

  ServiceOptions service_opts;
  auto service =
      RetrievalService::Build(f.model, f.bench.database.features, service_opts);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  ClusterOptions one;
  one.num_shards = 1;
  one.num_replicas = 1;
  auto single = ClusterService::Build(f.model, f.bench.database.features, one);
  ASSERT_TRUE(single.ok()) << single.status().ToString();

  ClusterOptions many = one;
  many.num_shards = 3;
  many.num_replicas = 2;
  auto sharded = ClusterService::Build(f.model, f.bench.database.features, many);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded.value().num_shards(), 3u);

  // Every query: the 3x2 cluster, the 1x1 cluster and the single-node
  // service must return the same ids and bit-identical distances — the ADC
  // distance of an item does not depend on which partition holds it, and
  // the (distance, id) merge is exact.
  const size_t queries = f.bench.query.features.rows();
  for (size_t q = 0; q < queries; ++q) {
    const Matrix query = f.bench.query.features.RowCopy(q);
    auto from_service = service.value().Query(query, 5);
    auto from_single = single.value().Query(query, 5);
    auto from_sharded = sharded.value().Query(query, 5);
    ASSERT_TRUE(from_service.ok());
    ASSERT_TRUE(from_single.ok());
    ASSERT_TRUE(from_sharded.ok());
    EXPECT_DOUBLE_EQ(from_sharded.value().coverage, 1.0);
    EXPECT_EQ(from_sharded.value().shards_answered, 3u);
    const auto& a = from_service.value();
    const auto& b = from_single.value().hits;
    const auto& c = from_sharded.value().hits;
    ASSERT_EQ(a.size(), 5u);
    ASSERT_EQ(b.size(), 5u);
    ASSERT_EQ(c.size(), 5u);
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].id, c[i].id);
      EXPECT_EQ(a[i].distance, b[i].distance);  // bitwise, not approximate
      EXPECT_EQ(a[i].distance, c[i].distance);
    }
  }
}

// ---------------------------------------------------------------------------
// Phase vocabulary: one name per interval, in spans and profile frames alike
// ---------------------------------------------------------------------------

/// The trace's span tree as sorted "parent/child" edges ("/root" for a
/// root), after checking that no span shares its parent's name and none is
/// named rerank.
std::vector<std::string> SpanEdges(const obs::Trace& trace) {
  const auto records = trace.Records();
  std::vector<std::string> edges;
  for (const auto& r : records) {
    EXPECT_NE(r.name, "rerank");
    const std::string parent = r.parent >= 0 ? records[r.parent].name : "";
    EXPECT_NE(parent, r.name);
    edges.push_back(parent + "/" + r.name);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

template <typename Hits>
void ExpectBitIdentical(const Hits& a, const Hits& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].distance, b[i].distance);  // bitwise, not approximate
  }
}

TEST(PhaseVocabularyTest, TracedServiceQueryNamesEachPhaseOnce) {
  auto f = MakeFixture();
  const Matrix query = f.bench.query.features.RowCopy(0);
  for (const bool use_ivf : {false, true}) {
    SCOPED_TRACE(use_ivf ? "ivf" : "flat");
    ServiceOptions opts;
    opts.use_ivf = use_ivf;
    opts.ivf.num_cells = 10;
    opts.ivf.nprobe = 4;
    auto built =
        RetrievalService::Build(f.model, f.bench.database.features, opts);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const RetrievalService& service = built.value();

    auto plain = service.Query(query, 5);
    obs::Trace trace;
    RequestOptions request;
    request.trace = &trace;
    auto traced = service.Query(query, 5, request);
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(traced.ok());
    ExpectBitIdentical(plain.value(), traced.value());
    EXPECT_EQ(service.degraded_query_count(), 0u);  // IVF served both

    std::vector<std::string> want = {
        "/query",          "query/embed",
        "query/request",   "request/admission",
        "request/search",  use_ivf ? "search/ivf_search" : "search/adc_search"};
    std::sort(want.begin(), want.end());
    EXPECT_EQ(SpanEdges(trace), want);
  }
}

TEST(PhaseVocabularyTest, TracedClusterQueryNamesEachPhaseOnce) {
  auto f = MakeFixture();
  ClusterOptions opts;
  opts.num_shards = 3;
  opts.num_replicas = 1;
  auto built = ClusterService::Build(f.model, f.bench.database.features, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ClusterService& cluster = built.value();
  const Matrix query = f.bench.query.features.RowCopy(0);

  auto plain = cluster.Query(query, 5);
  obs::Trace trace;
  RequestOptions request;
  request.trace = &trace;
  auto traced = cluster.Query(query, 5, request);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(traced.ok());
  ExpectBitIdentical(plain.value().hits, traced.value().hits);

  std::vector<std::string> want = {
      "/cluster_query",         "cluster_query/embed",
      "cluster_query/router",   "router/router_scatter",
      "router/router_merge"};
  for (int s = 0; s < 3; ++s) {
    want.push_back("router_scatter/shard_search");
    want.push_back("shard_search/adc_search");
  }
  std::sort(want.begin(), want.end());
  EXPECT_EQ(SpanEdges(trace), want);

  // The shard number lives in the record's shard field, not in the name.
  std::vector<int32_t> shards;
  for (const auto& r : trace.Records()) {
    if (r.name == "shard_search") shards.push_back(r.shard);
  }
  std::sort(shards.begin(), shards.end());
  EXPECT_EQ(shards, (std::vector<int32_t>{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// Failover and degradation under chaos
// ---------------------------------------------------------------------------

TEST(ClusterServingTest, KillingOneReplicaOfEveryShardCostsNoQueries) {
  ChaosGuard guard;
  auto f = MakeFixture();
  ClusterOptions opts;
  opts.num_shards = 3;
  opts.num_replicas = 2;
  auto built = ClusterService::Build(f.model, f.bench.database.features, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ClusterService& cluster = built.value();
  MetricsDumpOnFailure dump{&cluster};
  const Matrix query = f.bench.query.features.RowCopy(0);

  // Replica 0 of EVERY shard is a dead process.
  ReplicaFault dead;
  dead.shard = -1;
  dead.replica = 0;
  dead.kill = true;
  ChaosPlan plan;
  plan.replica_faults.push_back(dead);
  ArmChaos(plan);

  for (int i = 0; i < 8; ++i) {
    auto r = cluster.Query(query, 3);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_DOUBLE_EQ(r.value().coverage, 1.0);  // zero coverage lost
    EXPECT_EQ(r.value().shards_answered, 3u);
    EXPECT_EQ(r.value().hits.size(), 3u);
  }

  // Exact bookkeeping. Query 1 pays one failover per shard (replica 0 is
  // still ranked first while healthy); every later query goes straight to
  // the surviving replica because the failure demoted replica 0 below it.
  const ClusterStats stats = cluster.Stats();
  EXPECT_EQ(stats.served, 8u);
  EXPECT_EQ(stats.partial, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.expired, 0u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.failovers, 3u);
  EXPECT_EQ(stats.timeouts, 0u);
  const ChaosCounters chaos = ChaosCountersSnapshot();
  EXPECT_EQ(chaos.replica_failures_injected, 3u);
  // Query 1: two attempts per shard; queries 2-8: one attempt per shard.
  EXPECT_EQ(chaos.replica_searches, 3u * 2u + 7u * 3u);
}

TEST(ClusterServingTest, WholeShardDownDegradesToPartialWithExactStats) {
  ChaosGuard guard;
  auto f = MakeFixture();
  ClusterOptions opts;
  opts.num_shards = 3;
  opts.num_replicas = 2;
  opts.health.failures_to_suspect = 1;
  opts.health.failures_to_down = 2;
  opts.health.down_cooldown_seconds = 3600.0;  // no probing inside the test
  auto built = ClusterService::Build(f.model, f.bench.database.features, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ClusterService& cluster = built.value();
  MetricsDumpOnFailure dump{&cluster};
  const Matrix query = f.bench.query.features.RowCopy(0);

  // Both replicas of shard 1 are dead: its rows [50, 100) are dark.
  ReplicaFault dead;
  dead.shard = 1;
  dead.replica = -1;
  dead.kill = true;
  ChaosPlan plan;
  plan.replica_faults.push_back(dead);
  ArmChaos(plan);

  const size_t total = cluster.num_items();
  const size_t dark_begin = cluster.shards().shard_offset(1);
  const size_t dark_end = dark_begin + cluster.shards().shard_items(1);
  const double expected_coverage =
      static_cast<double>(total - cluster.shards().shard_items(1)) /
      static_cast<double>(total);  // (N-1)/N of the rows

  for (int i = 0; i < 5; ++i) {
    auto r = cluster.Query(query, 10);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_DOUBLE_EQ(r.value().coverage, expected_coverage);
    EXPECT_EQ(r.value().shards_answered, 2u);
    // Partial results never contain rows of the dark shard.
    for (const ServedHit& hit : r.value().hits) {
      EXPECT_TRUE(hit.id < dark_begin || hit.id >= dark_end);
    }
  }

  // Exact outcome accounting: queries 1 and 2 walk both dead replicas
  // (one failover each) until the second failure downs them; queries 3-5
  // find no candidates at all and pay zero attempts on the dark shard.
  const ClusterStats stats = cluster.Stats();
  EXPECT_EQ(stats.served, 0u);
  EXPECT_EQ(stats.partial, 5u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.expired, 0u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.failovers, 2u);
  EXPECT_EQ(TotalOutcomes(stats), 5u);
  // suspect+down for each of the two replicas.
  EXPECT_EQ(stats.health_transitions, 4u);
  EXPECT_FALSE(cluster.health().ShardServable(1));
  EXPECT_EQ(cluster.health().state(1, 0), ReplicaHealth::kDown);
  EXPECT_EQ(cluster.health().state(1, 1), ReplicaHealth::kDown);

  // Coverage histogram: five observations, all at the partial fraction.
  EXPECT_EQ(stats.coverage.count, 5u);
}

TEST(ClusterServingTest, BelowQuorumFailsUnavailableAndCountsShed) {
  ChaosGuard guard;
  auto f = MakeFixture();
  ClusterOptions opts;
  opts.num_shards = 2;
  opts.num_replicas = 1;
  opts.router.quorum_coverage = 0.75;  // half the rows is not enough
  auto built = ClusterService::Build(f.model, f.bench.database.features, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ClusterService& cluster = built.value();
  MetricsDumpOnFailure dump{&cluster};
  const Matrix query = f.bench.query.features.RowCopy(0);

  ReplicaFault dead;
  dead.shard = 0;
  dead.replica = -1;
  dead.kill = true;
  ChaosPlan plan;
  plan.replica_faults.push_back(dead);
  ArmChaos(plan);

  for (int i = 0; i < 3; ++i) {
    auto r = cluster.Query(query, 3);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  }
  const ClusterStats stats = cluster.Stats();
  EXPECT_EQ(stats.shed, 3u);
  EXPECT_EQ(stats.served + stats.partial, 0u);
  EXPECT_EQ(TotalOutcomes(stats), 3u);
}

TEST(ClusterServingTest, RequestLifecycleSignalsOutrankUnavailability) {
  auto f = MakeFixture();
  ClusterOptions opts;
  opts.num_shards = 2;
  opts.num_replicas = 1;
  auto built = ClusterService::Build(f.model, f.bench.database.features, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ClusterService& cluster = built.value();
  const Matrix query = f.bench.query.features.RowCopy(0);

  RequestOptions expired_req;
  expired_req.deadline = Deadline::After(0.0);
  auto expired = cluster.Query(query, 3, expired_req);
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);

  CancellationSource source;
  source.RequestCancellation();
  RequestOptions cancelled_req;
  cancelled_req.cancel = source.token();
  auto cancelled = cluster.Query(query, 3, cancelled_req);
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  const ClusterStats stats = cluster.Stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(TotalOutcomes(stats), 2u);
}

// The storm: a flapping replica, a latency-spiked replica that burns its
// sub-deadline, and finally a whole shard killed below quorum — with exact
// served / partial / shed / failover / timeout counters across all phases.
TEST(ClusterServingTest, ChaosStormFlapAndLatencySpikeExactCounters) {
  ChaosGuard guard;
  auto f = MakeFixture();
  ThreadPool pool(4);
  ClusterOptions opts;
  opts.num_shards = 2;
  opts.num_replicas = 2;
  opts.health.failures_to_suspect = 1;
  opts.health.failures_to_down = 3;
  opts.health.down_cooldown_seconds = 3600.0;
  opts.router.quorum_coverage = 0.6;  // one dark shard of two is below quorum
  opts.router.pool = &pool;
  auto built = ClusterService::Build(f.model, f.bench.database.features, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ClusterService& cluster = built.value();
  MetricsDumpOnFailure dump{&cluster};
  const Matrix query = f.bench.query.features.RowCopy(0);

  // Phase A — flap storm on (shard 0, replica 0): attempt 0 serves,
  // attempt 1 fails, attempt 2 would serve again, ...
  {
    ReplicaFault flap;
    flap.shard = 0;
    flap.replica = 0;
    flap.flap_period = 1;
    ChaosPlan plan;
    plan.replica_faults.push_back(flap);
    ArmChaos(plan);
    for (int i = 0; i < 4; ++i) {
      auto r = cluster.Query(query, 3);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_DOUBLE_EQ(r.value().coverage, 1.0);
    }
    // Query 2 hits the flap's first down-window and fails over; the
    // demotion then steers queries 3-4 to the stable replica, so the flap
    // never fires again — exactly one failover, one injected failure.
    EXPECT_EQ(ChaosCountersSnapshot().replica_failures_injected, 1u);
    EXPECT_EQ(cluster.health().state(0, 0), ReplicaHealth::kSuspect);
  }

  // Phase B — latency spike on (shard 1, replica 0): 0.7s against a 1s
  // request budget split across 2 allowed attempts, so the first attempt's
  // 0.5s sub-deadline expires while the request is still alive — a timeout
  // verdict and a served failover, not a failed query.
  {
    ReplicaFault spike;
    spike.shard = 1;
    spike.replica = 0;
    spike.latency_seconds = 0.7;
    ChaosPlan plan;
    plan.replica_faults.push_back(spike);
    ArmChaos(plan);
    RequestOptions req;
    req.deadline = Deadline::After(1.0);
    auto r = cluster.Query(query, 3, req);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_DOUBLE_EQ(r.value().coverage, 1.0);
    EXPECT_EQ(cluster.health().state(1, 0), ReplicaHealth::kSuspect);
    EXPECT_EQ(cluster.health().timeout_count(), 1u);
  }

  // Phase C — kill shard 0 entirely: coverage 0.5 < quorum 0.6, so queries
  // shed instead of serving partial results.
  {
    ReplicaFault dead;
    dead.shard = 0;
    dead.replica = -1;
    dead.kill = true;
    ChaosPlan plan;
    plan.replica_faults.push_back(dead);
    ArmChaos(plan);
    for (int i = 0; i < 2; ++i) {
      auto r = cluster.Query(query, 3);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
    }
    // Each query walks both shard-0 replicas (one failover each); shard 1
    // keeps serving its half throughout.
    EXPECT_EQ(ChaosCountersSnapshot().replica_failures_injected, 4u);
    EXPECT_EQ(cluster.health().state(0, 0), ReplicaHealth::kDown);
    EXPECT_EQ(cluster.health().state(0, 1), ReplicaHealth::kSuspect);
  }

  // Exact cross-phase bookkeeping: 4 + 1 + 2 queries, one terminal outcome
  // each; failovers = flap (1) + spike (1) + 2x shard-0 walk (2).
  const ClusterStats stats = cluster.Stats();
  EXPECT_EQ(stats.served, 5u);
  EXPECT_EQ(stats.partial, 0u);
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.expired, 0u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.failovers, 4u);
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(TotalOutcomes(stats), 7u);
}

// TSan hammer: many threads, flapping replicas, shared router pool. The
// invariant is conservation — every query lands in exactly one terminal
// outcome and the client-observed split matches the registry exactly.
TEST(ClusterServingTest, ConcurrentFlapStormConservesOutcomes) {
  ChaosGuard guard;
  auto f = MakeFixture();
  ThreadPool pool(4);
  ClusterOptions opts;
  opts.num_shards = 3;
  opts.num_replicas = 2;
  opts.health.failures_to_suspect = 1;
  opts.health.failures_to_down = 3;
  opts.health.down_cooldown_seconds = 0.01;  // exercise the probe path too
  opts.router.pool = &pool;
  auto built = ClusterService::Build(f.model, f.bench.database.features, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ClusterService& cluster = built.value();
  MetricsDumpOnFailure dump{&cluster};

  ReplicaFault flap;
  flap.shard = -1;
  flap.replica = 0;
  flap.flap_period = 3;
  ChaosPlan plan;
  plan.replica_faults.push_back(flap);
  ArmChaos(plan);

  constexpr int kThreads = 6;
  constexpr int kQueriesPerThread = 30;
  std::atomic<uint64_t> ok_count{0};
  std::atomic<uint64_t> err_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Matrix query = f.bench.query.features.RowCopy(
          static_cast<size_t>(t) % f.bench.query.features.rows());
      for (int i = 0; i < kQueriesPerThread; ++i) {
        auto r = cluster.Query(query, 3);
        if (r.ok()) {
          ok_count.fetch_add(1);
        } else {
          err_count.fetch_add(1);
        }
        // Concurrent observers: stats snapshots and health reads race the
        // serving path by design.
        (void)cluster.Stats();
        (void)cluster.health().ShardServable(static_cast<size_t>(i) % 3);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  DisarmChaos();

  constexpr uint64_t kTotal =
      static_cast<uint64_t>(kThreads) * kQueriesPerThread;
  const ClusterStats stats = cluster.Stats();
  EXPECT_EQ(ok_count.load() + err_count.load(), kTotal);
  EXPECT_EQ(TotalOutcomes(stats), kTotal);
  EXPECT_EQ(stats.served + stats.partial, ok_count.load());
  EXPECT_EQ(stats.shed + stats.expired + stats.cancelled + stats.failed,
            err_count.load());
  EXPECT_EQ(stats.expired, 0u);    // no deadlines in this storm
  EXPECT_EQ(stats.cancelled, 0u);  // no cancellations either
  EXPECT_EQ(stats.coverage.count, stats.served + stats.partial);
}

TEST(ReplicaHealthTest, TransportSignalsWalkTheStateMachine) {
  // The exact verdict sequence a remote replica produces when its server
  // dies: a refused connect and a peer reset arrive as kUnavailable
  // (RecordFailure), a burned budget as kDeadlineExceeded (RecordTimeout).
  // The monitor cannot tell transports apart — the walk must match the
  // in-process one signal for signal.
  double now = 0.0;
  HealthOptions opts;
  opts.failures_to_suspect = 1;
  opts.failures_to_down = 3;
  opts.successes_to_recover = 2;
  opts.down_cooldown_seconds = 5.0;
  opts.probe_budget = 1;
  opts.clock = [&now] { return now; };
  ReplicaHealthMonitor m(1, 2, opts);

  // Refused connect: HEALTHY -> SUSPECT.
  ASSERT_TRUE(m.BeginAttempt(0, 0));
  m.RecordFailure(0, 0);
  EXPECT_EQ(m.state(0, 0), ReplicaHealth::kSuspect);

  // Dial that ate the whole sub-deadline: timeout keeps the streak going.
  ASSERT_TRUE(m.BeginAttempt(0, 0));
  m.RecordTimeout(0, 0);
  EXPECT_EQ(m.state(0, 0), ReplicaHealth::kSuspect);
  EXPECT_EQ(m.timeout_count(), 1u);

  // Peer reset mid-stream: third failure signal, SUSPECT -> DOWN.
  ASSERT_TRUE(m.BeginAttempt(0, 0));
  m.RecordFailure(0, 0);
  EXPECT_EQ(m.state(0, 0), ReplicaHealth::kDown);
  EXPECT_FALSE(m.BeginAttempt(0, 0));

  // Server restarted; after the cooldown the replica probes and recovers.
  now = 5.0;
  EXPECT_EQ(m.state(0, 0), ReplicaHealth::kProbing);
  ASSERT_TRUE(m.BeginAttempt(0, 0));
  m.RecordSuccess(0, 0, 0.01);
  ASSERT_TRUE(m.BeginAttempt(0, 0));
  m.RecordSuccess(0, 0, 0.01);
  EXPECT_EQ(m.state(0, 0), ReplicaHealth::kHealthy);

  // suspect, down, probing, healthy.
  EXPECT_EQ(m.transition_count(), 4u);
}

TEST(ReplicaHealthTest, ProbeBudgetHoldsUnderReconnectStorm) {
  // A reconnect storm: many client threads race BeginAttempt against one
  // PROBING replica. The probe budget must bound the *concurrent* grants
  // no matter how the races interleave. The threads start together, and a
  // first-round winner keeps its slot until some thread has been denied, so
  // the storm contends however the scheduler runs it (with 8 threads and a
  // budget of 2 a denial always comes: at most 2 threads hold a slot).
  double now = 0.0;
  HealthOptions opts;
  opts.failures_to_suspect = 1;
  opts.failures_to_down = 2;
  opts.down_cooldown_seconds = 1.0;
  opts.probe_budget = 2;
  opts.clock = [&now] { return now; };
  ReplicaHealthMonitor m(1, 1, opts);

  ASSERT_TRUE(m.BeginAttempt(0, 0));
  m.RecordFailure(0, 0);
  ASSERT_TRUE(m.BeginAttempt(0, 0));
  m.RecordFailure(0, 0);
  ASSERT_EQ(m.state(0, 0), ReplicaHealth::kDown);
  now = 1.0;
  ASSERT_EQ(m.state(0, 0), ReplicaHealth::kProbing);

  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 200;
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  std::atomic<uint64_t> granted{0};
  std::atomic<uint64_t> denied{0};
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      for (int i = 0; i < kRoundsPerThread; ++i) {
        if (!m.BeginAttempt(0, 0)) {
          denied.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        granted.fetch_add(1, std::memory_order_relaxed);
        const int now_in_flight =
            in_flight.fetch_add(1, std::memory_order_acq_rel) + 1;
        int seen = max_in_flight.load(std::memory_order_relaxed);
        while (now_in_flight > seen &&
               !max_in_flight.compare_exchange_weak(seen, now_in_flight)) {
        }
        if (i == 0) {
          while (denied.load(std::memory_order_relaxed) == 0) {
            std::this_thread::yield();
          }
        }
        std::this_thread::yield();
        in_flight.fetch_sub(1, std::memory_order_acq_rel);
        // Abandoned: frees the probe slot without a verdict, so the
        // replica stays PROBING for the whole storm.
        m.RecordAbandoned(0, 0);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_LE(max_in_flight.load(), opts.probe_budget);
  EXPECT_GT(granted.load(), 0u);
  EXPECT_GT(denied.load(), 0u);  // the storm did contend
  EXPECT_EQ(m.state(0, 0), ReplicaHealth::kProbing);
}

TEST(ClusterServingTest, ExpiredBudgetFailsFastWithoutDispatchOrVerdicts) {
  // A sub-deadline carved from an exhausted budget must fail fast with
  // kDeadlineExceeded instead of dispatching: no replica attempt, no
  // bogus timeout verdict against a healthy replica. (Worse over a remote
  // transport, where dialing alone would eat the remaining budget.)
  auto f = MakeFixture();

  ClusterOptions opts;
  opts.num_shards = 2;
  opts.num_replicas = 1;
  opts.health.failures_to_suspect = 1;  // one bogus verdict would show up
  opts.router.min_attempt_budget_seconds = 1.0;
  auto built = ClusterService::Build(f.model, f.bench.database.features, opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ClusterService& cluster = built.value();

  const Matrix embedded = f.model->Embed(f.bench.query.features);
  const RoutedResult r = cluster.router().Search(
      embedded.row(0), 5, Deadline::After(0.2), {}, nullptr, nullptr);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r.shards_answered, 0u);
  EXPECT_EQ(r.timeouts, 0u);
  EXPECT_EQ(cluster.health().transition_count(), 0u);
  EXPECT_EQ(cluster.health().timeout_count(), 0u);

  // The same cluster still serves with a real budget: nothing was charged.
  const RoutedResult ok = cluster.router().Search(
      embedded.row(0), 5, Deadline(), {}, nullptr, nullptr);
  EXPECT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_DOUBLE_EQ(ok.coverage, 1.0);
}

}  // namespace
}  // namespace lightlt::serving
