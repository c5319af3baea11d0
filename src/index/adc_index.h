// Asymmetric-distance-computation (ADC) index over additive quantization
// codes — the inference path of LightLT (paper §IV, Eqn. 24, Fig. 3).
//
// The index stores, per item: M packed codeword IDs plus the squared norm of
// the reconstruction (4 bytes). At query time we build an (M x K) lookup
// table of <q, codeword> inner products in O(dMK), then score every item
// with M table lookups.

#ifndef LIGHTLT_INDEX_ADC_INDEX_H_
#define LIGHTLT_INDEX_ADC_INDEX_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/index/codes.h"
#include "src/index/kernels/scan_kernels.h"
#include "src/index/scan_core.h"
#include "src/obs/metrics.h"
#include "src/tensor/matrix.h"
#include "src/util/deadline.h"
#include "src/util/status.h"
#include "src/util/threadpool.h"

namespace lightlt::index {

/// Telemetry handles for a scan hot path (DESIGN.md §10). All-null by
/// default: an uninstrumented index pays one branch per chunk and nothing
/// per vector. When wired to a registry, each scan chunk costs a couple of
/// relaxed atomic adds plus two clock reads — never any per-vector work or
/// locking.
struct ScanInstruments {
  obs::Counter* chunks = nullptr;          ///< scan chunks executed
  obs::Counter* items = nullptr;           ///< vectors scored
  /// Scans stopped mid-flight by deadline/cancellation — each such stop
  /// overshot its budget by up to one chunk of work (§9).
  obs::Counter* overshoot = nullptr;
  obs::Histogram* chunk_seconds = nullptr; ///< per-chunk scoring time

  bool enabled() const { return chunks != nullptr; }

  /// Wires the handles to `{prefix}scan_*` metrics in `registry`.
  void Register(obs::MetricsRegistry* registry, const std::string& prefix);
};

/// ADC index: codebooks + packed codes + per-item reconstruction norms.
class AdcIndex {
 public:
  /// Builds from `codebooks` (M matrices of K x d) and per-item codes
  /// (codes[i][m] in [0, K)). Reconstruction norms are computed here.
  static Result<AdcIndex> Build(
      const std::vector<Matrix>& codebooks,
      const std::vector<std::vector<uint32_t>>& item_codes);

  /// Fills `scores[i]` with the (exact, up to quantization) squared
  /// distance ||q - o_i||^2 - ||q||^2 + const... specifically
  /// `||o_i||^2 - 2 <q, o_i>`, which ranks identically to the full squared
  /// distance for a fixed query. O(dMK + nM).
  void ComputeScores(const float* query, std::vector<float>* scores) const;

  /// Control-aware scan: scores in chunks of `control.check_every_items`,
  /// polling deadline/cancellation (and the chaos hooks, when armed)
  /// between chunks, so an expiring request stops within one chunk. With a
  /// trivial control and chaos disarmed this is the same single tight loop
  /// as the overload above. On failure `scores` contents are unspecified.
  Status ComputeScores(const float* query, std::vector<float>* scores,
                       const ScanControl& control) const;

  /// Returns the top_k nearest items by ADC distance (ascending; equal
  /// distances break by ascending id). Uses the fast-scan kernel path when
  /// available: the shared scan core (scan_core.h) runs the u8-quantized
  /// LUT scan over the blocked code layout and rescores in float only the
  /// items that could still enter the top-k heap, so the result equals the
  /// exact scalar scan's top-k (DESIGN.md §12).
  std::vector<SearchHit> Search(const float* query, size_t top_k) const;

  /// Control-aware Search: kDeadlineExceeded / kCancelled when the scan is
  /// stopped mid-flight, kUnavailable for an injected transient fault.
  Result<std::vector<SearchHit>> Search(const float* query, size_t top_k,
                                        const ScanControl& control) const;

  /// Name of the scan kernel Search will use ("off" = exact scalar path).
  const char* scan_kernel_name() const { return scan_kernel_.name; }

  /// Full ranking of all items (for MAP evaluation).
  std::vector<uint32_t> RankAll(const float* query) const;

  /// Reconstructs item `i` as the sum of its selected codewords.
  Matrix Reconstruct(size_t item) const;

  size_t num_items() const { return codes_.num_items(); }
  size_t num_codebooks() const { return codebooks_.size(); }
  size_t num_codewords() const {
    return codebooks_.empty() ? 0 : codebooks_[0].rows();
  }
  size_t dim() const { return codebooks_.empty() ? 0 : codebooks_[0].cols(); }

  /// Total bytes: 4KMd (codebooks) + packed codes + 4n (norms) — the
  /// space-complexity expression of §IV-A.
  size_t MemoryBytes() const;

  /// Theoretical per-query distance-computation cost in fused
  /// multiply-adds: dMK (lookup tables) + nM (scoring), §IV-B.
  size_t TheoreticalQueryOps() const;

  Status Save(const std::string& path) const;
  static Result<AdcIndex> Load(const std::string& path);

  /// Registers `{prefix}scan_*` metrics and records into them from every
  /// control-aware scan. Call once after Build/Load (not thread-safe
  /// against in-flight scans); the registry must outlive the index.
  void Instrument(obs::MetricsRegistry* registry, const std::string& prefix);

 private:
  AdcIndex() = default;

  /// Materializes the byte-wide scan cache from the packed codes.
  void BuildScanCache();

  /// Scores items [begin, end) into scores[begin..end). O((end-begin) M).
  /// Exact float path — bit-identical across builds and kernels, and to
  /// the fast-scan path's rescores.
  void ScoreRange(const float* lut, size_t begin, size_t end,
                  float* scores) const;

  /// True when Search can take the quantized kernel path.
  bool FastScanEnabled() const {
    return scan_kernel_.fn != nullptr && !blocked_codes_.empty();
  }

  /// Kernel-path Search: one scan-core call per chunk of items, each
  /// rescoring its gated items while their codes and sums are hot. With a
  /// null control this is the uncontrolled flavour (no polling, no chaos,
  /// no instrumentation), mirroring the legacy Search split.
  Result<std::vector<SearchHit>> SearchFastScan(
      const float* query, size_t top_k, const ScanControl* control) const;

  /// Exact scalar Search over precomputed scores (legacy path and the
  /// K > 256 / kernels-off fallback).
  static std::vector<SearchHit> TopKFromScores(
      const std::vector<float>& scores, size_t top_k);

  std::vector<Matrix> codebooks_;     // M x (K x d)
  PackedCodes codes_;                 // n x M packed IDs
  std::vector<float> recon_norms_;    // ||o_i||^2 per item
  /// Byte-wide scan caches, built when K <= 256 — the packed array is the
  /// storage format, these are the scan formats, and exactly one is live.
  /// With a fast-scan kernel selected the blocked/transposed layout
  /// (kernels::BuildBlockedCodes) is the one scan cache and exact scoring
  /// reads it strided; otherwise the item-major byte array is (at the
  /// paper's K=256 it equals the packed size, log2 K = 8 bits).
  std::vector<uint8_t> scan_codes_;
  std::vector<uint8_t> blocked_codes_;
  kernels::ScanKernel scan_kernel_;
  ScanInstruments instruments_;
};

}  // namespace lightlt::index

#endif  // LIGHTLT_INDEX_ADC_INDEX_H_
