// Cluster router and serving facade (DESIGN.md §13).
//
// Router scatter-gathers one query across every shard of a ShardSet on a
// ThreadPool: each shard task walks the ReplicaHealthMonitor's candidate
// list (healthy → suspect → probing), claims an attempt slot, and runs the
// replica search under a *sub-deadline* carved from the request's remaining
// budget — remaining/attempts_left, so the first attempt leaves room for a
// failover and the last one gets everything that is left. Attempt verdicts
// feed the monitor (success+latency / failure / timeout / abandoned), which
// is what drives the next request's failover order.
//
// Per-shard top-k results merge by the deterministic (distance, id) order in
// global database ids: with every shard healthy the merged top-k is
// bit-identical to a single-shard search over the same corpus (each shard's
// local top-k is a superset of its contribution to the global top-k; ADC
// distances depend only on codebooks+codes, not on the partition).
//
// Degradation contract: a shard whose every usable replica fails costs
// *coverage*, not availability — the query succeeds with `coverage` = the
// fraction of database rows actually searched, as long as coverage stays at
// or above RouterOptions::quorum_coverage. Below quorum the query fails
// with kUnavailable (or the stronger kDeadlineExceeded / kCancelled when
// the request's own budget was the cause).
//
// ClusterService is the deployment-facing facade over model + ShardSet +
// ReplicaHealthMonitor + Router, with the same exact-counter ServiceStats
// discipline as RetrievalService: every query ends in exactly one of
// served / partial / shed / expired / cancelled / failed.

#ifndef LIGHTLT_SERVING_ROUTER_H_
#define LIGHTLT_SERVING_ROUTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/lightlt_model.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/quality.h"
#include "src/serving/health.h"
#include "src/serving/service.h"
#include "src/serving/shard.h"
#include "src/serving/transport.h"
#include "src/util/deadline.h"
#include "src/util/status.h"
#include "src/util/threadpool.h"

namespace lightlt::serving {

struct RouterOptions {
  /// Replica attempts allowed per shard per request, including the first
  /// (failover cap). Clamped to the replica count.
  int max_attempts_per_shard = 2;
  /// Minimum fraction of database rows successful shards must cover for
  /// the query to succeed; below it the query fails (kUnavailable, or the
  /// request's own deadline/cancel status when that was the cause).
  double quorum_coverage = 0.5;
  /// Items scanned between deadline/cancel checks inside replica scans.
  size_t scan_check_every = 1024;
  /// Pool the scatter runs on (null = shards searched inline, in order).
  ThreadPool* pool = nullptr;
  /// A replica attempt whose carved sub-deadline would be at or below this
  /// many seconds fails fast with kDeadlineExceeded instead of dispatching:
  /// an already-expired or near-zero budget cannot finish any scan, and
  /// dispatching it would charge the replica a bogus timeout verdict (worse
  /// over a remote transport, where dialing alone would eat the budget).
  double min_attempt_budget_seconds = 1e-6;
  /// Optional structured logger: every failover verdict (timeout/failure
  /// that moves the walk to the next replica) and terminal shard failure
  /// is logged with the request's trace id, so log lines and trace dumps
  /// join by grep (DESIGN.md §15).
  obs::Logger* logger = nullptr;
};

/// Outcome of one routed query. `status` is the single terminal verdict;
/// the fan-out metadata is populated either way so callers can count
/// failovers and timeouts even on a failed request.
struct RoutedResult {
  Status status;
  /// Merged top-k in global database ids, (distance, id) ascending.
  std::vector<index::SearchHit> hits;
  /// Fraction of database rows covered by successful shards (1.0 = full).
  double coverage = 0.0;
  uint32_t shards_answered = 0;
  /// Replica attempts beyond the first, summed over shards.
  uint32_t failovers = 0;
  /// Attempts that burned their sub-deadline (health timeout signals).
  uint32_t timeouts = 0;
  /// Per-shard terminal status, index = shard id.
  std::vector<Status> shard_status;
};

/// Captures one routed query into a slow-query explain ring when it
/// crossed the ring's latency threshold: terminal outcome, coverage /
/// shards-answered / failover attribution, and the request's full span
/// tree (stitched remote subtrees carry per-span shard attribution).
/// Null `log` and untraced requests are fine; sub-threshold queries are
/// ignored. ClusterService::Query calls this internally; callers driving
/// Router directly (e.g. over a RemoteTransport) use it to get the same
/// ring records.
void MaybeCaptureSlowQuery(obs::SlowQueryLog* log, const RoutedResult& routed,
                           double elapsed_seconds, const obs::Trace* trace);

/// Scatter-gather search over a SearchTransport with health-driven
/// failover. Transport-agnostic: in-process ShardSet and remote shard
/// servers merge bit-identically (see src/serving/transport.h).
/// Thread-safe: holds shared immutable state plus the (internally locked)
/// health monitor.
class Router {
 public:
  Router(std::shared_ptr<const SearchTransport> transport,
         std::shared_ptr<ReplicaHealthMonitor> health,
         const RouterOptions& options);

  /// Convenience overload: routes over an in-process ShardSet.
  Router(std::shared_ptr<const ShardSet> shards,
         std::shared_ptr<ReplicaHealthMonitor> health,
         const RouterOptions& options);

  /// Routes one embedded query. `deadline`/`cancel` bound the whole
  /// fan-out; each shard attempt gets a sub-deadline derived from the
  /// remaining budget. Span tree when `trace` is non-null (the same names
  /// tag the profile frames): router → router_scatter → shard_search
  /// (shard number in the span record) → (ivf_search | adc_search, or rpc
  /// over a remote transport); router → router_merge.
  RoutedResult Search(const float* query, size_t top_k,
                      const Deadline& deadline,
                      const CancellationToken& cancel, obs::Trace* trace,
                      const obs::Span* parent) const;

  const SearchTransport& transport() const { return *transport_; }
  ReplicaHealthMonitor& health() const { return *health_; }
  const RouterOptions& options() const { return options_; }

 private:
  /// One shard's failover walk: candidates in health order, sub-deadline
  /// per attempt, verdicts recorded into the monitor.
  struct ShardOutcome {
    Status status;
    std::vector<index::SearchHit> hits;
    uint32_t attempts = 0;
    uint32_t timeouts = 0;
  };
  ShardOutcome SearchShard(size_t shard, const float* query, size_t top_k,
                           const Deadline& deadline,
                           const CancellationToken& cancel, obs::Trace* trace,
                           const obs::Span* parent) const;

  std::shared_ptr<const SearchTransport> transport_;
  std::shared_ptr<ReplicaHealthMonitor> health_;
  RouterOptions options_;
};

/// Configuration of a ClusterService stack.
struct ClusterOptions {
  size_t num_shards = 2;
  size_t num_replicas = 2;
  /// Per-replica search engine (IVF, breaker).
  SearcherOptions searcher;
  /// Per-replica admission budget.
  AdmissionOptions replica_admission;
  HealthOptions health;
  RouterOptions router;
  /// Metrics registry (null: the service creates its own). Shared so
  /// callback gauges co-own the components they read.
  std::shared_ptr<obs::MetricsRegistry> metrics;
  /// Prefix of every cluster metric (`{prefix}requests_total{outcome=...}`,
  /// `{prefix}coverage`, per-replica scan instruments, health gauges).
  std::string metric_prefix = "cluster_";
  /// Slow-query explain ring (latency_threshold_seconds > 0 enables it).
  /// Captured records carry the full stitched span tree — remote subtrees
  /// included, with per-span shard attribution — plus coverage/failover
  /// accounting, so one ring entry explains where a slow fan-out spent its
  /// time (DESIGN.md §15).
  obs::SlowQueryLog::Options slow_query;
};

/// One successful cluster answer: merged hits plus how much of the
/// database stood behind them.
struct ClusterResponse {
  std::vector<ServedHit> hits;
  double coverage = 1.0;
  uint32_t shards_answered = 0;
  uint32_t failovers = 0;
};

/// Point-in-time cluster counters; every terminal query outcome increments
/// exactly one of served/partial/shed/expired/cancelled/failed.
struct ClusterStats {
  uint64_t served = 0;     ///< full coverage
  uint64_t partial = 0;    ///< served with coverage < 1
  uint64_t shed = 0;       ///< kUnavailable (below quorum)
  uint64_t expired = 0;    ///< kDeadlineExceeded
  uint64_t cancelled = 0;  ///< kCancelled
  uint64_t failed = 0;     ///< any other terminal error
  uint64_t failovers = 0;
  uint64_t timeouts = 0;
  uint64_t health_transitions = 0;
  /// Coverage distribution of successful (served + partial) queries.
  obs::HistogramSnapshot coverage;
};

/// The sharded deployment facade: model (query encoder) + ShardSet +
/// ReplicaHealthMonitor + Router.
class ClusterService {
 public:
  /// Builds the cluster from a trained model and raw database features:
  /// embeds and encodes the database once, partitions it across
  /// `options.num_shards` contiguous shards and builds `options.num_replicas`
  /// independent replica searchers per shard. The model is shared (not
  /// copied) and must outlive the service.
  static Result<ClusterService> Build(
      std::shared_ptr<const core::LightLtModel> model,
      const Matrix& db_features, const ClusterOptions& options = {});

  /// Top-k search for one raw feature vector (1 x input_dim). Succeeds —
  /// possibly with partial coverage — whenever surviving shards cover at
  /// least `router.quorum_coverage` of the database.
  Result<ClusterResponse> Query(const Matrix& features, size_t top_k) const;
  Result<ClusterResponse> Query(const Matrix& features, size_t top_k,
                                const RequestOptions& request) const;

  size_t num_items() const { return shards_->total_items(); }
  size_t num_shards() const { return shards_->num_shards(); }
  size_t num_replicas() const { return shards_->num_replicas(); }
  size_t IndexMemoryBytes() const { return shards_->MemoryBytes(); }
  const ClusterOptions& options() const { return options_; }

  const Router& router() const { return *router_; }
  ReplicaHealthMonitor& health() const { return *health_; }
  const ShardSet& shards() const { return *shards_; }

  /// The slow-query explain ring, when ClusterOptions::slow_query enabled
  /// one (null otherwise).
  obs::SlowQueryLog* SlowQueries() const { return slow_log_.get(); }

  /// Exact counter snapshot (same conservation discipline as
  /// RetrievalService::Stats: one terminal outcome per query).
  ClusterStats Stats() const;

  obs::MetricsRegistry& Metrics() const { return *metrics_; }

 private:
  ClusterService() = default;

  struct Instruments {
    obs::Counter* served = nullptr;
    obs::Counter* partial = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* expired = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* failovers = nullptr;
    obs::Counter* timeouts = nullptr;
    obs::Histogram* coverage = nullptr;
    /// Query latency per terminal outcome bucket, seconds.
    obs::Histogram* latency_served = nullptr;
    obs::Histogram* latency_failed = nullptr;

    void Register(obs::MetricsRegistry* registry, const std::string& prefix);
  };

  ClusterOptions options_;
  std::shared_ptr<const core::LightLtModel> model_;
  std::shared_ptr<const ShardSet> shards_;
  std::shared_ptr<ReplicaHealthMonitor> health_;
  std::unique_ptr<Router> router_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  std::shared_ptr<obs::SlowQueryLog> slow_log_;  // null unless capture on
  Instruments inst_;
};

}  // namespace lightlt::serving

#endif  // LIGHTLT_SERVING_ROUTER_H_
