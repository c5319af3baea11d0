#include "src/serving/router.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <string>
#include <utility>

#include "src/core/pipeline.h"
#include "src/obs/profile.h"
#include "src/util/check.h"
#include "src/util/timer.h"

namespace lightlt::serving {
namespace {

bool AllFinite(const Matrix& m) {
  const float* data = m.data();
  for (size_t i = 0; i < m.size(); ++i) {
    if (!std::isfinite(data[i])) return false;
  }
  return true;
}

}  // namespace

Router::Router(std::shared_ptr<const SearchTransport> transport,
               std::shared_ptr<ReplicaHealthMonitor> health,
               const RouterOptions& options)
    : transport_(std::move(transport)),
      health_(std::move(health)),
      options_(options) {
  LIGHTLT_CHECK(transport_ != nullptr);
  LIGHTLT_CHECK(health_ != nullptr);
  LIGHTLT_CHECK(health_->num_shards() == transport_->num_shards());
  LIGHTLT_CHECK(health_->num_replicas() == transport_->num_replicas());
  if (options_.max_attempts_per_shard < 1) options_.max_attempts_per_shard = 1;
  if (options_.min_attempt_budget_seconds < 0.0) {
    options_.min_attempt_budget_seconds = 0.0;
  }
}

Router::Router(std::shared_ptr<const ShardSet> shards,
               std::shared_ptr<ReplicaHealthMonitor> health,
               const RouterOptions& options)
    : Router(std::make_shared<LocalShardTransport>(std::move(shards)), health,
             options) {}

Router::ShardOutcome Router::SearchShard(size_t shard, const float* query,
                                         size_t top_k,
                                         const Deadline& deadline,
                                         const CancellationToken& cancel,
                                         obs::Trace* trace,
                                         const obs::Span* parent) const {
  ShardOutcome outcome;
  obs::ProfilePhase shard_phase("shard_search", trace, parent);
  if (trace != nullptr) {
    trace->SetShard(shard_phase.span(), static_cast<int32_t>(shard));
  }

  // Every failover verdict is logged with the request's trace id, so a
  // stitched trace dump and the router's log lines join by grep
  // (trace_id=0000... on untraced requests).
  const uint64_t trace_id = trace != nullptr ? trace->trace_id() : 0;
  auto log_verdict = [&](const char* verdict, size_t replica,
                         const Status& s) {
    if (options_.logger == nullptr) return;
    options_.logger->Log(
        obs::LogLevel::kWarn, "router", "replica attempt failed",
        {obs::LogField("trace_id", obs::TraceIdHex(trace_id)),
         obs::LogField("shard", static_cast<uint64_t>(shard)),
         obs::LogField("replica", static_cast<uint64_t>(replica)),
         obs::LogField("verdict", verdict),
         obs::LogField("code", Status::CodeName(s.code())),
         obs::LogField("error", s.message())});
  };

  const std::vector<size_t> candidates = health_->Candidates(shard);
  if (candidates.empty()) {
    outcome.status =
        Status::Unavailable("router: every replica of the shard is down");
    return outcome;
  }
  const uint32_t max_attempts = static_cast<uint32_t>(
      std::min<size_t>(static_cast<size_t>(options_.max_attempts_per_shard),
                       candidates.size()));

  const ScanControl request_budget{deadline, cancel};
  Status last = Status::Unavailable("router: all replica attempts failed");
  for (size_t i = 0;
       i < candidates.size() && outcome.attempts < max_attempts; ++i) {
    Status budget = request_budget.Check();
    if (!budget.ok()) {
      outcome.status = std::move(budget);
      return outcome;
    }
    const size_t replica = candidates[i];

    // Sub-deadline: an even split of the remaining request budget over the
    // attempts still allowed, so the first attempt leaves room for a
    // failover and the last one gets everything that is left. Computed
    // before the attempt slot is claimed: a zero-or-near-zero slice cannot
    // finish any scan, so dispatching it would only charge the replica a
    // bogus timeout verdict (and, over a remote transport, burn a wire
    // round trip) — fail fast instead.
    Deadline sub = deadline;
    if (!deadline.IsInfinite()) {
      const uint32_t attempts_left = max_attempts - outcome.attempts;
      const double budget = std::max(0.0, deadline.RemainingSeconds()) /
                            static_cast<double>(attempts_left);
      if (budget <= options_.min_attempt_budget_seconds) {
        outcome.status = Status::DeadlineExceeded(
            "router: no budget left for a replica attempt");
        return outcome;
      }
      sub = Deadline::After(budget);
    }

    // A denied claim (probe budget exhausted, or the replica raced to DOWN
    // since Candidates ran) consumes no attempt: move to the next candidate.
    if (!health_->BeginAttempt(shard, replica)) continue;
    ++outcome.attempts;
    const ScanControl control{sub, cancel, options_.scan_check_every};
    ReplicaAttempt attempt = transport_->SearchReplica(
        shard, replica, query, top_k, control, trace, &shard_phase.span());

    if (attempt.status.ok()) {
      // Health still hears about slow successes (slow_latency_seconds);
      // the hits are served either way — they arrived inside the budget.
      health_->RecordSuccess(shard, replica, attempt.latency_seconds);
      outcome.status = Status::Ok();
      outcome.hits = std::move(attempt.hits);
      return outcome;
    }
    switch (attempt.status.code()) {
      case StatusCode::kCancelled:
        // The caller pulled the plug — no verdict about the replica.
        health_->RecordAbandoned(shard, replica);
        outcome.status = std::move(attempt.status);
        return outcome;
      case StatusCode::kDeadlineExceeded:
        if (!deadline.Expired()) {
          // The sub-deadline fired while the request still has budget: the
          // replica was too slow to answer in its share — a timeout signal,
          // and grounds to fail over.
          health_->RecordTimeout(shard, replica);
          log_verdict("timeout", replica, attempt.status);
          ++outcome.timeouts;
          last = std::move(attempt.status);
          break;
        }
        // The request's own budget is gone; the replica was never really
        // given a chance.
        health_->RecordAbandoned(shard, replica);
        outcome.status = std::move(attempt.status);
        return outcome;
      default:
        // Error or admission shed — both count against the replica.
        health_->RecordFailure(shard, replica);
        log_verdict("failure", replica, attempt.status);
        last = std::move(attempt.status);
        break;
    }
  }
  if (options_.logger != nullptr && !last.ok()) {
    options_.logger->Log(
        obs::LogLevel::kWarn, "router", "shard exhausted its replicas",
        {obs::LogField("trace_id", obs::TraceIdHex(trace_id)),
         obs::LogField("shard", static_cast<uint64_t>(shard)),
         obs::LogField("attempts", static_cast<uint64_t>(outcome.attempts)),
         obs::LogField("code", Status::CodeName(last.code()))});
  }
  outcome.status = std::move(last);
  return outcome;
}

RoutedResult Router::Search(const float* query, size_t top_k,
                            const Deadline& deadline,
                            const CancellationToken& cancel,
                            obs::Trace* trace,
                            const obs::Span* parent) const {
  const size_t num_shards = transport_->num_shards();
  RoutedResult result;
  result.shard_status.resize(num_shards);

  obs::ProfilePhase router_phase("router", trace, parent);

  // Scatter: one task per shard. Each task observes the request deadline
  // internally (sub-deadlines bound every attempt), so a plain Wait()
  // returns promptly after expiry — at most one chunk of scan work late.
  std::vector<ShardOutcome> outcomes(num_shards);
  {
    obs::ProfilePhase scatter_phase("router_scatter", trace,
                                    &router_phase.span());
    TaskGroup group(options_.pool);
    for (size_t s = 0; s < num_shards; ++s) {
      group.Submit([&, s] {
        try {
          outcomes[s] = SearchShard(s, query, top_k, deadline, cancel, trace,
                                    &scatter_phase.span());
        } catch (const std::exception& e) {
          outcomes[s].status = Status::Internal(
              std::string("router: shard task failed: ") + e.what());
        } catch (...) {
          outcomes[s].status = Status::Internal("router: shard task failed");
        }
      });
    }
    group.Wait();
  }

  // Gather: successful shards contribute hits and coverage; failed shards
  // contribute their status to the terminal verdict.
  obs::ProfilePhase merge_phase("router_merge", trace, &router_phase.span());
  std::vector<index::SearchHit> merged;
  size_t covered = 0;
  bool saw_expired = false;
  bool saw_cancelled = false;
  for (size_t s = 0; s < num_shards; ++s) {
    ShardOutcome& outcome = outcomes[s];
    result.shard_status[s] = outcome.status;
    if (outcome.attempts > 0) result.failovers += outcome.attempts - 1;
    result.timeouts += outcome.timeouts;
    if (outcome.status.ok()) {
      ++result.shards_answered;
      covered += transport_->shard_items(s);
      merged.insert(merged.end(), outcome.hits.begin(), outcome.hits.end());
    } else if (outcome.status.code() == StatusCode::kDeadlineExceeded) {
      saw_expired = true;
    } else if (outcome.status.code() == StatusCode::kCancelled) {
      saw_cancelled = true;
    }
  }
  const size_t total = transport_->total_items();
  result.coverage =
      total == 0 ? 0.0
                 : static_cast<double>(covered) / static_cast<double>(total);

  if (result.shards_answered > 0 &&
      result.coverage >= options_.quorum_coverage) {
    // Deterministic k-way merge: each shard's local top-k is already a
    // superset of its contribution to the global top-k, so one exact
    // (distance, id) sort over the union reproduces the single-shard order
    // bit for bit.
    std::sort(merged.begin(), merged.end(),
              [](const index::SearchHit& a, const index::SearchHit& b) {
                return a.distance < b.distance ||
                       (a.distance == b.distance && a.id < b.id);
              });
    if (merged.size() > top_k) merged.resize(top_k);
    result.hits = std::move(merged);
    result.status = Status::Ok();
    return result;
  }
  // Below quorum. The caller's own lifecycle signals outrank a generic
  // unavailability verdict: cancel is the explicit stop request (same
  // precedence as ScanControl::Check), then the deadline.
  if (saw_cancelled) {
    result.status = Status::Cancelled("router: request cancelled");
  } else if (saw_expired) {
    result.status =
        Status::DeadlineExceeded("router: request deadline exceeded");
  } else {
    result.status = Status::Unavailable(
        "router: coverage below quorum, too many shards unavailable");
  }
  return result;
}

void MaybeCaptureSlowQuery(obs::SlowQueryLog* log, const RoutedResult& routed,
                           double elapsed_seconds, const obs::Trace* trace) {
  if (log == nullptr || log->options().latency_threshold_seconds <= 0.0 ||
      elapsed_seconds < log->options().latency_threshold_seconds) {
    return;
  }
  obs::SlowQueryRecord record;
  record.kind = "latency";
  record.outcome =
      routed.status.ok() ? "ok" : Status::CodeName(routed.status.code());
  record.trace_id = trace != nullptr ? trace->trace_id() : 0;
  record.latency_seconds = elapsed_seconds;
  record.explain.coverage = routed.coverage;
  record.explain.shards_answered = routed.shards_answered;
  record.explain.failovers = routed.failovers;
  // The request's root span is typically still open here; closed child
  // spans — including stitched remote subtrees with shard attribution —
  // carry the useful timing.
  if (trace != nullptr) record.spans = trace->Records();
  log->Add(std::move(record));
}

void ClusterService::Instruments::Register(obs::MetricsRegistry* registry,
                                           const std::string& prefix) {
  const std::string requests = prefix + "requests_total";
  served = registry->GetCounter(obs::WithLabel(requests, "outcome", "served"));
  partial =
      registry->GetCounter(obs::WithLabel(requests, "outcome", "partial"));
  shed = registry->GetCounter(obs::WithLabel(requests, "outcome", "shed"));
  expired =
      registry->GetCounter(obs::WithLabel(requests, "outcome", "expired"));
  cancelled =
      registry->GetCounter(obs::WithLabel(requests, "outcome", "cancelled"));
  failed = registry->GetCounter(obs::WithLabel(requests, "outcome", "failed"));
  failovers = registry->GetCounter(prefix + "failovers_total");
  timeouts = registry->GetCounter(prefix + "timeouts_total");
  coverage = registry->GetHistogram(prefix + "coverage");
  const std::string latency = prefix + "latency_seconds";
  latency_served =
      registry->GetHistogram(obs::WithLabel(latency, "outcome", "served"));
  latency_failed =
      registry->GetHistogram(obs::WithLabel(latency, "outcome", "error"));
}

Result<ClusterService> ClusterService::Build(
    std::shared_ptr<const core::LightLtModel> model,
    const Matrix& db_features, const ClusterOptions& options) {
  if (model == nullptr) {
    return Status::InvalidArgument("ClusterService: null model");
  }
  if (db_features.rows() == 0) {
    return Status::InvalidArgument("ClusterService: empty database");
  }
  if (db_features.cols() != model->config().input_dim) {
    return Status::InvalidArgument(
        "ClusterService: database feature dim mismatch");
  }
  if (options.router.quorum_coverage < 0.0 ||
      options.router.quorum_coverage > 1.0) {
    return Status::InvalidArgument(
        "ClusterService: quorum_coverage must be in [0, 1]");
  }
  // Same artifact validation as the single-node service: a damaged model or
  // a NaN database must be rejected at Build, not discovered as garbage
  // neighbours in production.
  for (const auto& p : model->Parameters()) {
    if (!AllFinite(p->value())) {
      return Status::FailedPrecondition(
          "ClusterService: model has non-finite weights");
    }
  }
  const size_t embed_dim = model->config().embed_dim;
  for (const Matrix& cb : model->Codebooks()) {
    if (cb.cols() != embed_dim) {
      return Status::FailedPrecondition(
          "ClusterService: codebook/embedding dim mismatch");
    }
  }
  if (!AllFinite(db_features)) {
    return Status::InvalidArgument(
        "ClusterService: database features contain NaN/Inf");
  }

  ClusterService service;
  service.options_ = options;
  service.model_ = model;
  service.metrics_ = options.metrics
                         ? options.metrics
                         : std::make_shared<obs::MetricsRegistry>();
  service.inst_.Register(service.metrics_.get(), options.metric_prefix);
  if (options.slow_query.latency_threshold_seconds > 0.0) {
    service.slow_log_ = std::make_shared<obs::SlowQueryLog>(options.slow_query);
  }

  const Matrix embedded = core::EmbedInChunks(*model, db_features);
  std::vector<std::vector<uint32_t>> codes;
  model->dsq().Encode(embedded, &codes);

  ShardSetOptions shard_options;
  shard_options.num_shards = options.num_shards;
  shard_options.num_replicas = options.num_replicas;
  shard_options.searcher = options.searcher;
  shard_options.replica_admission = options.replica_admission;
  auto shards =
      ShardSet::Build(embedded, model->Codebooks(), codes, shard_options);
  if (!shards.ok()) return shards.status();
  auto shard_set = std::make_shared<ShardSet>(std::move(shards).value());
  shard_set->Instrument(service.metrics_.get(), options.metric_prefix);
  service.shards_ = shard_set;

  service.health_ = std::make_shared<ReplicaHealthMonitor>(
      options.num_shards, options.num_replicas, options.health);
  service.health_->InstrumentGauges(service.metrics_.get(),
                                    options.metric_prefix, service.health_);

  service.router_ = std::make_unique<Router>(service.shards_, service.health_,
                                             options.router);
  return service;
}

Result<ClusterResponse> ClusterService::Query(const Matrix& features,
                                              size_t top_k) const {
  return Query(features, top_k, RequestOptions{});
}

Result<ClusterResponse> ClusterService::Query(
    const Matrix& features, size_t top_k,
    const RequestOptions& request) const {
  if (features.rows() != 1 ||
      features.cols() != model_->config().input_dim) {
    return Status::InvalidArgument("Query: expected a 1 x input_dim vector");
  }
  if (!AllFinite(features)) {
    return Status::InvalidArgument("Query: features contain NaN/Inf");
  }
  WallTimer timer;
  // Slow-query capture needs the stitched span tree even when the caller
  // did not opt into tracing, so an internal per-call trace stands in
  // (same pattern as RetrievalService).
  obs::Trace internal_trace;
  obs::Trace* trace = request.trace;
  if (slow_log_ != nullptr && trace == nullptr) trace = &internal_trace;
  obs::ProfilePhase query_phase("cluster_query", trace);
  Matrix embedded;
  {
    obs::ProfilePhase phase("embed", trace, &query_phase.span());
    embedded = model_->Embed(features);
  }
  const RoutedResult routed =
      router_->Search(embedded.row(0), top_k, request.deadline, request.cancel,
                      trace, &query_phase.span());
  const double elapsed = timer.ElapsedSeconds();
  MaybeCaptureSlowQuery(slow_log_.get(), routed, elapsed, trace);
  inst_.failovers->Increment(routed.failovers);
  inst_.timeouts->Increment(routed.timeouts);
  if (routed.status.ok()) {
    if (routed.coverage < 1.0) {
      inst_.partial->Increment();
    } else {
      inst_.served->Increment();
    }
    inst_.coverage->Record(routed.coverage);
    inst_.latency_served->Record(elapsed);
    ClusterResponse response;
    response.coverage = routed.coverage;
    response.shards_answered = routed.shards_answered;
    response.failovers = routed.failovers;
    response.hits.reserve(routed.hits.size());
    for (const index::SearchHit& hit : routed.hits) {
      response.hits.push_back({hit.id, hit.distance});
    }
    return response;
  }
  switch (routed.status.code()) {
    case StatusCode::kUnavailable:
      inst_.shed->Increment();
      break;
    case StatusCode::kDeadlineExceeded:
      inst_.expired->Increment();
      break;
    case StatusCode::kCancelled:
      inst_.cancelled->Increment();
      break;
    default:
      inst_.failed->Increment();
      break;
  }
  inst_.latency_failed->Record(elapsed);
  return routed.status;
}

ClusterStats ClusterService::Stats() const {
  ClusterStats s;
  s.served = inst_.served->Value();
  s.partial = inst_.partial->Value();
  s.shed = inst_.shed->Value();
  s.expired = inst_.expired->Value();
  s.cancelled = inst_.cancelled->Value();
  s.failed = inst_.failed->Value();
  s.failovers = inst_.failovers->Value();
  s.timeouts = inst_.timeouts->Value();
  s.health_transitions = health_->transition_count();
  s.coverage = inst_.coverage->Snapshot();
  return s;
}

}  // namespace lightlt::serving
