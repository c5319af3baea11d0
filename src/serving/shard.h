// Sharded search building blocks (DESIGN.md §13).
//
// ReplicaSearcher is the single-partition search engine extracted from
// RetrievalService: a flat ADC index that always covers its partition and
// an optional IVF accelerator behind a CircuitBreaker — with the same
// degradation ladder (breaker-gated IVF → flat fallback) and the same
// deterministic (distance, id) ordering. One RetrievalService owns exactly
// one; a ShardSet owns a grid of them.
//
// ShardSet partitions a database's rows into `num_shards` contiguous
// ranges and builds `num_replicas` independent ReplicaSearcher copies per
// shard, each with its own AdmissionController budget, so one hot or dead
// replica cannot take its siblings down. Search results come back in
// *global* database ids (partition offset + local id), ready for the
// Router's k-way merge. Per-replica chaos hooks (ChaosOnReplicaSearch)
// make kills, latency spikes and flap storms injectable per (shard,
// replica) pair.

#ifndef LIGHTLT_SERVING_SHARD_H_
#define LIGHTLT_SERVING_SHARD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/index/adc_index.h"
#include "src/index/ivf_index.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serving/admission.h"
#include "src/serving/circuit_breaker.h"
#include "src/tensor/matrix.h"
#include "src/util/deadline.h"
#include "src/util/status.h"

namespace lightlt::serving {

/// Per-searcher configuration, shared by the single-node service and every
/// cluster replica.
struct SearcherOptions {
  /// Use the IVF-accelerated index.
  bool use_ivf = false;
  index::IvfOptions ivf;
  /// Circuit breaker around the IVF path; irrelevant without use_ivf.
  CircuitBreakerOptions breaker;
};

/// One partition's breaker-gated search engine: flat ADC (always present)
/// and optional IVF. Moveable; not copyable.
class ReplicaSearcher {
 public:
  /// `embedded` is the partition's embedded vectors (rows of the database
  /// slice), `codebooks`/`codes` the DSQ artifacts for exactly those rows.
  static Result<ReplicaSearcher> Build(
      const Matrix& embedded, const std::vector<Matrix>& codebooks,
      const std::vector<std::vector<uint32_t>>& codes,
      const SearcherOptions& options);

  /// Top-k retrieval with graceful degradation: IVF behind the breaker,
  /// flat fallback on IVF failure/shortfall, deterministic (distance, id)
  /// order. `degraded` skips the IVF path. `used_fallback` (may be null)
  /// reports whether the flat scan served although IVF was enabled. Phases
  /// (profile frame, and a span under `parent` when `trace` is non-null):
  /// ivf_search for the IVF attempt, adc_search for the flat scan.
  Result<std::vector<index::SearchHit>> Search(const float* query,
                                               size_t top_k,
                                               const ScanControl& control,
                                               bool degraded,
                                               obs::Trace* trace,
                                               const obs::Span* parent,
                                               bool* used_fallback) const;

  /// Registers `{prefix}adc_*` / `{prefix}ivf_*` scan instruments. Call
  /// once after Build; the registry must outlive the searcher's scans.
  void InstrumentScans(obs::MetricsRegistry* registry,
                       const std::string& prefix);

  /// Counter bumped whenever the flat scan serves although IVF was enabled.
  /// The owner names it (the single-node service reuses its historical
  /// `serving_flat_fallbacks_total`; ShardSet registers one per replica).
  void set_flat_fallback_counter(obs::Counter* counter) {
    flat_fallbacks_ = counter;
  }

  size_t num_items() const { return adc_ ? adc_->num_items() : 0; }
  size_t dim() const { return adc_ ? adc_->dim() : 0; }
  size_t MemoryBytes() const;
  bool has_ivf() const { return ivf_ != nullptr; }
  /// Null unless IVF is enabled. Shared so callback gauges can co-own it.
  const std::shared_ptr<CircuitBreaker>& breaker() const { return breaker_; }
  uint64_t flat_fallback_count() const {
    return flat_fallbacks_ ? flat_fallbacks_->Value() : 0;
  }

 private:
  ReplicaSearcher() = default;

  std::unique_ptr<index::AdcIndex> adc_;
  std::unique_ptr<index::IvfAdcIndex> ivf_;
  std::shared_ptr<CircuitBreaker> breaker_;  // null unless IVF enabled
  obs::Counter* flat_fallbacks_ = nullptr;   // null until instrumented
};

/// Configuration of a ShardSet grid.
struct ShardSetOptions {
  size_t num_shards = 1;
  size_t num_replicas = 1;
  SearcherOptions searcher;
  /// Per-replica admission budget (each replica gets its own controller,
  /// so a hot shard sheds without starving its siblings). Defaults admit
  /// everything.
  AdmissionOptions replica_admission;
};

/// Outcome of one replica search attempt, as the router needs to see it:
/// hits are in global database ids.
struct ReplicaAttempt {
  Status status;
  std::vector<index::SearchHit> hits;
  /// Seconds the attempt took (health latency signal).
  double latency_seconds = 0.0;
  /// The replica shed the request at its admission budget (kUnavailable
  /// with no health verdict about the replica's machinery).
  bool shed = false;
};

/// A grid of num_shards x num_replicas ReplicaSearchers over contiguous
/// row partitions of one embedded database.
class ShardSet {
 public:
  /// Partitions `embedded`/`codes` into contiguous shard ranges (the same
  /// floor-boundary split ParallelFor uses: shard s covers rows
  /// [s*n/S, (s+1)*n/S)) and builds every replica. All replicas of a shard
  /// hold independent index copies of the same partition.
  static Result<ShardSet> Build(const Matrix& embedded,
                                const std::vector<Matrix>& codebooks,
                                const std::vector<std::vector<uint32_t>>& codes,
                                const ShardSetOptions& options);

  /// One search attempt on (shard, replica): chaos hook → admission →
  /// breaker-gated search, local ids translated to global. Never throws;
  /// all failure modes land in ReplicaAttempt::status.
  ReplicaAttempt SearchReplica(size_t shard, size_t replica,
                               const float* query, size_t top_k,
                               const ScanControl& control,
                               obs::Trace* trace,
                               const obs::Span* parent) const;

  size_t num_shards() const { return options_.num_shards; }
  size_t num_replicas() const { return options_.num_replicas; }
  /// First global row id of `shard`'s partition.
  size_t shard_offset(size_t shard) const { return offsets_[shard]; }
  /// Number of database rows in `shard`'s partition.
  size_t shard_items(size_t shard) const {
    return offsets_[shard + 1] - offsets_[shard];
  }
  size_t total_items() const { return offsets_.back(); }
  size_t MemoryBytes() const;

  const ReplicaSearcher& searcher(size_t shard, size_t replica) const {
    return *replicas_[shard * options_.num_replicas + replica];
  }

  /// Registers per-replica instruments under
  /// `{prefix}s<shard>_r<replica>_...`.
  void Instrument(obs::MetricsRegistry* registry, const std::string& prefix);

 private:
  ShardSet() = default;

  ShardSetOptions options_;
  /// num_shards + 1 partition boundaries (offsets_[0] == 0).
  std::vector<size_t> offsets_;
  /// Row-major [shard * num_replicas + replica]. unique_ptr so the set is
  /// moveable while searchers stay address-stable.
  std::vector<std::unique_ptr<ReplicaSearcher>> replicas_;
  /// One admission controller per replica, same layout. shared_ptr so
  /// callback gauges may co-own them later.
  std::vector<std::shared_ptr<AdmissionController>> admissions_;
};

}  // namespace lightlt::serving

#endif  // LIGHTLT_SERVING_SHARD_H_
