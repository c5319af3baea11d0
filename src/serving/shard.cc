#include "src/serving/shard.h"

#include <algorithm>
#include <utility>

#include "src/obs/profile.h"
#include "src/util/chaos.h"
#include "src/util/check.h"
#include "src/util/timer.h"

namespace lightlt::serving {

Result<ReplicaSearcher> ReplicaSearcher::Build(
    const Matrix& embedded, const std::vector<Matrix>& codebooks,
    const std::vector<std::vector<uint32_t>>& codes,
    const SearcherOptions& options) {
  if (embedded.rows() == 0) {
    return Status::InvalidArgument("ReplicaSearcher: empty partition");
  }
  if (embedded.rows() != codes.size()) {
    return Status::InvalidArgument(
        "ReplicaSearcher: embedded rows / codes count mismatch");
  }
  ReplicaSearcher searcher;
  if (options.use_ivf) {
    auto ivf =
        index::IvfAdcIndex::Build(embedded, codebooks, codes, options.ivf);
    if (!ivf.ok()) return ivf.status();
    searcher.ivf_ =
        std::make_unique<index::IvfAdcIndex>(std::move(ivf).value());
    searcher.breaker_ = std::make_shared<CircuitBreaker>(options.breaker);
  }
  // The flat ADC index is always kept: it serves degraded requests and is
  // the fallback scan path.
  auto adc = index::AdcIndex::Build(codebooks, codes);
  if (!adc.ok()) return adc.status();
  searcher.adc_ = std::make_unique<index::AdcIndex>(std::move(adc).value());
  return searcher;
}

void ReplicaSearcher::InstrumentScans(obs::MetricsRegistry* registry,
                                      const std::string& prefix) {
  adc_->Instrument(registry, prefix + "adc_");
  if (ivf_ != nullptr) ivf_->Instrument(registry, prefix + "ivf_");
}

Result<std::vector<index::SearchHit>> ReplicaSearcher::Search(
    const float* query, size_t top_k, const ScanControl& control,
    bool degraded, obs::Trace* trace, const obs::Span* parent,
    bool* used_fallback) const {
  // Degraded requests shed the optional work: the flat scan instead of the
  // IVF path.
  if (ivf_ != nullptr && !degraded) {
    obs::ProfilePhase phase("ivf_search", trace, parent);
    // Graceful degradation: the flat ADC index covers the whole partition,
    // so if the IVF path fails or its probed cells yield fewer candidates
    // than the flat scan would, fall back rather than fail or silently
    // shortchange the caller. Repeated failures open the breaker, which
    // routes straight to the flat scan until a cooldown probe succeeds.
    if (breaker_->AllowRequest()) {
      auto hits = ivf_->Search(query, top_k, control, /*nprobe=*/0);
      if (hits.ok()) {
        if (hits.value().size() >= std::min(top_k, adc_->num_items())) {
          breaker_->RecordSuccess();
          return hits;
        }
        breaker_->RecordFailure();  // shortfall
      } else if (hits.status().code() == StatusCode::kDeadlineExceeded ||
                 hits.status().code() == StatusCode::kCancelled) {
        // The request ran out of budget mid-scan — that says nothing about
        // IVF health, so the breaker gets no verdict.
        breaker_->RecordAbandoned();
        return hits.status();
      } else {
        breaker_->RecordFailure();
      }
    }
    if (flat_fallbacks_ != nullptr) flat_fallbacks_->Increment();
    if (used_fallback != nullptr) *used_fallback = true;
  }
  obs::ProfilePhase phase("adc_search", trace, parent);
  return adc_->Search(query, top_k, control);
}

size_t ReplicaSearcher::MemoryBytes() const {
  size_t bytes = adc_ ? adc_->MemoryBytes() : 0;
  if (ivf_) bytes += ivf_->MemoryBytes();
  return bytes;
}

Result<ShardSet> ShardSet::Build(
    const Matrix& embedded, const std::vector<Matrix>& codebooks,
    const std::vector<std::vector<uint32_t>>& codes,
    const ShardSetOptions& options) {
  const size_t n = embedded.rows();
  const size_t shards = options.num_shards;
  if (shards == 0 || options.num_replicas == 0) {
    return Status::InvalidArgument(
        "ShardSet: need at least one shard and one replica");
  }
  if (n < shards) {
    return Status::InvalidArgument(
        "ShardSet: fewer database rows than shards");
  }
  if (codes.size() != n) {
    return Status::InvalidArgument(
        "ShardSet: embedded rows / codes count mismatch");
  }

  ShardSet set;
  set.options_ = options;
  // Contiguous floor-boundary partition, the same deterministic split
  // ParallelFor uses: shard s covers [s*n/S, (s+1)*n/S).
  set.offsets_.resize(shards + 1);
  for (size_t s = 0; s <= shards; ++s) set.offsets_[s] = (n * s) / shards;

  set.replicas_.reserve(shards * options.num_replicas);
  set.admissions_.reserve(shards * options.num_replicas);
  for (size_t s = 0; s < shards; ++s) {
    const size_t begin = set.offsets_[s];
    const size_t rows = set.offsets_[s + 1] - begin;
    Matrix part(rows, embedded.cols());
    std::copy(embedded.row(begin), embedded.row(begin) + rows * embedded.cols(),
              part.data());
    const std::vector<std::vector<uint32_t>> part_codes(
        codes.begin() + static_cast<ptrdiff_t>(begin),
        codes.begin() + static_cast<ptrdiff_t>(begin + rows));
    for (size_t r = 0; r < options.num_replicas; ++r) {
      // Replicas are deliberately independent copies — index, breaker and
      // admission budget — so per-replica failure injection and health
      // verdicts model real isolated processes.
      auto searcher =
          ReplicaSearcher::Build(part, codebooks, part_codes, options.searcher);
      if (!searcher.ok()) return searcher.status();
      set.replicas_.push_back(std::make_unique<ReplicaSearcher>(
          std::move(searcher).value()));
      set.admissions_.push_back(
          std::make_shared<AdmissionController>(options.replica_admission));
    }
  }
  return set;
}

ReplicaAttempt ShardSet::SearchReplica(size_t shard, size_t replica,
                                       const float* query, size_t top_k,
                                       const ScanControl& control,
                                       obs::Trace* trace,
                                       const obs::Span* parent) const {
  LIGHTLT_CHECK(shard < options_.num_shards);
  LIGHTLT_CHECK(replica < options_.num_replicas);
  const size_t flat = shard * options_.num_replicas + replica;
  ReplicaAttempt attempt;
  WallTimer timer;

  // Chaos first: a killed replica fails every request before its admission
  // or index sees it, exactly like a dead process behind a socket.
  Status chaos = ChaosOnReplicaSearch(shard, replica);
  if (!chaos.ok()) {
    attempt.latency_seconds = timer.ElapsedSeconds();
    attempt.status = std::move(chaos);
    return attempt;
  }
  // Entry budget check: a small partition's scan may finish inside one
  // chunk without ever polling the control, so an attempt that burned its
  // sub-deadline in the chaos hook (an injected latency spike standing in
  // for a slow network or replica) must observe the expiry here.
  if (!control.Trivial()) {
    Status entry = control.Check();
    if (!entry.ok()) {
      attempt.latency_seconds = timer.ElapsedSeconds();
      attempt.status = std::move(entry);
      return attempt;
    }
  }

  const AdmissionOutcome outcome = admissions_[flat]->TryAdmit();
  if (outcome == AdmissionOutcome::kShed) {
    attempt.latency_seconds = timer.ElapsedSeconds();
    attempt.shed = true;
    attempt.status =
        Status::Unavailable("ShardSet: replica admission shed the request");
    return attempt;
  }
  AdmissionTicket ticket(admissions_[flat].get());
  const bool degraded = outcome == AdmissionOutcome::kDegrade;

  auto result = replicas_[flat]->Search(query, top_k, control, degraded,
                                        trace, parent,
                                        /*used_fallback=*/nullptr);
  attempt.latency_seconds = timer.ElapsedSeconds();
  if (!result.ok()) {
    attempt.status = result.status();
    return attempt;
  }
  attempt.hits = std::move(result).value();
  // Local partition ids → global database ids.
  const uint32_t offset = static_cast<uint32_t>(offsets_[shard]);
  for (index::SearchHit& hit : attempt.hits) hit.id += offset;
  return attempt;
}

size_t ShardSet::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& replica : replicas_) bytes += replica->MemoryBytes();
  return bytes;
}

void ShardSet::Instrument(obs::MetricsRegistry* registry,
                          const std::string& prefix) {
  for (size_t s = 0; s < options_.num_shards; ++s) {
    for (size_t r = 0; r < options_.num_replicas; ++r) {
      ReplicaSearcher* searcher = replicas_[s * options_.num_replicas + r].get();
      const std::string replica_prefix =
          prefix + "s" + std::to_string(s) + "_r" + std::to_string(r) + "_";
      searcher->InstrumentScans(registry, replica_prefix);
      searcher->set_flat_fallback_counter(
          registry->GetCounter(replica_prefix + "flat_fallbacks_total"));
    }
  }
}

}  // namespace lightlt::serving
