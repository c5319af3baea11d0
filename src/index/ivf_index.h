// IVF-ADC: inverted-file acceleration on top of the ADC index.
//
// The paper's LightLT scans all n items per query (O(dMK + nM), §IV-B).
// For larger databases, classical practice partitions the database with a
// coarse k-means quantizer and scans only the `nprobe` cells nearest to the
// query — the natural extension of the paper's efficiency story. Residual
// encoding composes naturally with LightLT: each item is stored as
// (cell id, DSQ codes of the item), and distances are computed with the
// same per-query lookup tables, restricted to probed cells.

#ifndef LIGHTLT_INDEX_IVF_INDEX_H_
#define LIGHTLT_INDEX_IVF_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/index/adc_index.h"
#include "src/index/kernels/scan_kernels.h"
#include "src/tensor/matrix.h"
#include "src/util/deadline.h"
#include "src/util/status.h"

namespace lightlt::index {

struct IvfOptions {
  /// Number of coarse cells (k-means centroids).
  size_t num_cells = 64;
  /// Cells scanned per query.
  size_t nprobe = 8;
  /// Coarse-quantizer training iterations.
  int kmeans_iterations = 20;
  uint64_t seed = 0x1f5;

  Status Validate() const;
};

/// Inverted-file index over quantization codes. Build with the database's
/// *continuous* embeddings (for the coarse quantizer) plus the same
/// codebooks/codes an AdcIndex would take.
class IvfAdcIndex {
 public:
  /// `embeddings` are the n continuous vectors (used only to train and
  /// assign the coarse quantizer); `codebooks`/`item_codes` mirror
  /// AdcIndex::Build.
  static Result<IvfAdcIndex> Build(
      const Matrix& embeddings, const std::vector<Matrix>& codebooks,
      const std::vector<std::vector<uint32_t>>& item_codes,
      const IvfOptions& options);

  /// Top-k search probing `nprobe` cells (option default; overridable per
  /// query with `nprobe_override` > 0). Returns original database ids.
  std::vector<SearchHit> Search(const float* query, size_t top_k,
                                size_t nprobe_override = 0) const;

  /// Control-aware Search: polls deadline/cancellation between probed
  /// cells (each cell is one scan chunk), and runs the chaos IVF hooks —
  /// an injected IVF failure surfaces here as kUnavailable, which the
  /// serving circuit breaker counts. On success, may still return fewer
  /// than top_k hits when the probed cells are short (caller degrades).
  Result<std::vector<SearchHit>> Search(const float* query, size_t top_k,
                                        const ScanControl& control,
                                        size_t nprobe_override) const;

  /// Expected fraction of the database scanned per query (diagnostic; cell
  /// balance determines the real speedup over exhaustive ADC). Uses actual
  /// cell masses: for each cell, the mass of the nprobe cells nearest to its
  /// centroid, weighted by the probability a query lands there (approximated
  /// by the cell's own mass).
  double ExpectedScanFraction(size_t nprobe_override = 0) const;

  size_t num_items() const { return total_items_; }
  size_t num_cells() const { return centroids_.rows(); }

  /// Codebooks + packed per-cell codes + centroids + id lists.
  size_t MemoryBytes() const;

  /// Versioned binary persistence (checksummed footer, atomic write).
  Status Save(const std::string& path) const;
  static Result<IvfAdcIndex> Load(const std::string& path);

  /// Registers `{prefix}scan_*` chunk telemetry plus `{prefix}probed_cells`
  /// and `{prefix}scanned_fraction` histograms, recorded per successful
  /// search. Instruments are not persisted — call again after Load. Not
  /// thread-safe against in-flight searches; the registry must outlive the
  /// index.
  void Instrument(obs::MetricsRegistry* registry, const std::string& prefix);

 private:
  IvfAdcIndex() = default;

  IvfOptions options_;
  Matrix centroids_;                 // num_cells x d
  std::vector<float> centroid_norms_;  // ||centroid_c||^2, fixed at Build
  std::vector<Matrix> codebooks_;    // M x (K x d)
  /// Picks the fast-scan kernel for this K (Build/Load epilogue).
  void SelectKernel();

  /// Per cell: original database ids, their codes in the fast-scan blocked
  /// layout (kernels::BuildBlockedCodes — NumBlocks(n)*M*32 bytes, tail
  /// lanes zero), and per-item reconstruction norms.
  std::vector<std::vector<uint32_t>> cell_ids_;
  std::vector<std::vector<uint8_t>> cell_codes_;
  std::vector<std::vector<float>> cell_norms_;    // ||o_i||^2 per item
  size_t total_items_ = 0;
  /// Kernel selected for this K at Build/Load (fn null = exact path only).
  kernels::ScanKernel scan_kernel_;
  /// Per-cell chunk telemetry plus probe-breadth histograms (DESIGN.md §10).
  ScanInstruments instruments_;
  obs::Histogram* probed_cells_ = nullptr;
  obs::Histogram* scanned_fraction_ = nullptr;
};

}  // namespace lightlt::index

#endif  // LIGHTLT_INDEX_IVF_INDEX_H_
