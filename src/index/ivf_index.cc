#include "src/index/ivf_index.h"

#include <algorithm>
#include <cmath>

#include "src/clustering/kmeans.h"
#include "src/obs/profile.h"
#include "src/util/chaos.h"
#include "src/util/check.h"
#include "src/util/io.h"
#include "src/util/timer.h"

namespace lightlt::index {

Status IvfOptions::Validate() const {
  if (num_cells == 0) {
    return Status::InvalidArgument("IvfOptions: num_cells must be > 0");
  }
  if (nprobe == 0 || nprobe > num_cells) {
    return Status::InvalidArgument(
        "IvfOptions: nprobe must be in [1, num_cells]");
  }
  return Status::Ok();
}

Result<IvfAdcIndex> IvfAdcIndex::Build(
    const Matrix& embeddings, const std::vector<Matrix>& codebooks,
    const std::vector<std::vector<uint32_t>>& item_codes,
    const IvfOptions& options) {
  LIGHTLT_RETURN_IF_ERROR(options.Validate());
  LIGHTLT_RETURN_IF_ERROR(ValidateCodebooks(codebooks));
  if (embeddings.rows() != item_codes.size()) {
    return Status::InvalidArgument(
        "IvfAdcIndex: embeddings/codes count mismatch");
  }
  const size_t m = codebooks.size();
  const size_t d = codebooks[0].cols();
  if (codebooks[0].rows() > 256) {
    return Status::InvalidArgument(
        "IvfAdcIndex: K > 256 not supported by the byte-code cells");
  }

  IvfAdcIndex idx;
  idx.options_ = options;
  idx.codebooks_ = codebooks;
  idx.total_items_ = item_codes.size();

  // Coarse quantizer over the continuous embeddings.
  clustering::KMeansOptions km;
  km.num_clusters = options.num_cells;
  km.max_iterations = options.kmeans_iterations;
  km.seed = options.seed;
  const auto coarse = clustering::KMeans(embeddings, km);
  idx.centroids_ = coarse.centroids;

  const size_t cells = idx.centroids_.rows();
  idx.cell_ids_.resize(cells);
  idx.cell_codes_.resize(cells);
  idx.cell_norms_.resize(cells);

  // ||centroid||^2 is query-independent; computing it here instead of per
  // query keeps the cell-ranking loop in Search to one dot product per cell.
  idx.centroid_norms_.resize(cells);
  for (size_t c = 0; c < cells; ++c) {
    const float* centroid = idx.centroids_.row(c);
    float norm = 0.0f;
    for (size_t j = 0; j < d; ++j) norm += centroid[j] * centroid[j];
    idx.centroid_norms_[c] = norm;
  }

  // Gather item-major codes per cell first; the scan layout is blocked.
  std::vector<std::vector<uint8_t>> item_major(cells);
  std::vector<float> recon;
  for (size_t i = 0; i < item_codes.size(); ++i) {
    auto norm = ReconstructionNorm(codebooks, item_codes[i], &recon);
    if (!norm.ok()) return norm.status();
    const uint32_t cell = coarse.assignments[i];
    idx.cell_ids_[cell].push_back(static_cast<uint32_t>(i));
    idx.cell_norms_[cell].push_back(norm.value());
    for (const uint32_t code : item_codes[i]) {
      item_major[cell].push_back(static_cast<uint8_t>(code));
    }
  }
  for (size_t c = 0; c < cells; ++c) {
    kernels::BuildBlockedCodes(item_major[c].data(),
                               idx.cell_ids_[c].size(), m,
                               &idx.cell_codes_[c]);
  }
  idx.SelectKernel();
  return idx;
}

std::vector<SearchHit> IvfAdcIndex::Search(const float* query, size_t top_k,
                                           size_t nprobe_override) const {
  // Legacy uncontrolled entry point: chaos-instrumented like the
  // control-aware one (the hooks are no-ops when disarmed), with an
  // injected failure surfacing as an empty result (callers treat a
  // shortfall as degradation).
  auto result = Search(query, top_k, ScanControl{}, nprobe_override);
  return result.ok() ? std::move(result).value() : std::vector<SearchHit>{};
}

Result<std::vector<SearchHit>> IvfAdcIndex::Search(
    const float* query, size_t top_k, const ScanControl& control,
    size_t nprobe_override) const {
  LIGHTLT_RETURN_IF_ERROR(ChaosOnIvfSearch());
  const size_t m = codebooks_.size();
  const size_t k = codebooks_.empty() ? 0 : codebooks_[0].rows();
  const size_t d = codebooks_.empty() ? 0 : codebooks_[0].cols();
  const size_t nprobe = std::min(
      nprobe_override == 0 ? options_.nprobe : nprobe_override,
      centroids_.rows());

  // The nprobe cells nearest by centroid distance (rank-equivalent form).
  std::vector<SearchHit> cell_order;
  {
    obs::ProfilePhase route_phase("ivf_route");
    TopKHeap nearest(nprobe);
    for (size_t c = 0; c < centroids_.rows(); ++c) {
      const float* centroid = centroids_.row(c);
      float dot = 0.0f;
      for (size_t j = 0; j < d; ++j) dot += query[j] * centroid[j];
      nearest.Offer(
          {static_cast<uint32_t>(c), centroid_norms_[c] - 2.0f * dot});
    }
    cell_order = nearest.TakeSorted();
  }

  // Shared lookup tables, as in the flat ADC scan (§IV-B), plus their
  // quantized form when a fast-scan kernel is selected.
  std::vector<float> lut;
  {
    obs::ProfilePhase lut_phase("lut_build");
    lut = BuildLookupTables(codebooks_, query);
  }
  kernels::QuantizedLut qlut;
  if (control.stats != nullptr) control.stats->lut_builds += 1;
  if (scan_kernel_.fn != nullptr) {
    obs::ProfilePhase lut_phase("lut_build");
    qlut = kernels::QuantizeLut(lut.data(), m, k);
    if (control.stats != nullptr) control.stats->lut_builds += 1;
  }

  // Scan the probed cells into one bounded top_k heap through the shared
  // scan core. Each cell is one cooperative chunk: the control is polled
  // between cells, so expiry or cancellation overshoots by at most one
  // cell's scan. Telemetry is likewise per-cell — the inner scoring loop
  // carries no instrumentation.
  const ScanQuery scan{lut.data(), m, k, &qlut, scan_kernel_.fn, &control};
  TopKHeap heap(std::min(top_k, total_items_));  // top_k comes off the wire
  std::vector<uint16_t> sums;
  size_t cells_scanned = 0;
  size_t items_scanned = 0;
  Status status = Status::Ok();
  obs::ProfilePhase scan_phase("ivf_scan");
  for (; cells_scanned < nprobe; ++cells_scanned) {
    if (cells_scanned > 0 && !(status = control.Check()).ok()) {
      if (instruments_.enabled()) instruments_.overshoot->Increment();
      break;
    }
    if (!(status = ChaosOnScanChunk()).ok()) break;
    const uint32_t cell = cell_order[cells_scanned].id;
    const size_t cell_items = cell_ids_[cell].size();
    ScopedTimer timer(instruments_.chunk_seconds);
    status = ScanBlocks(scan,
                        {cell_codes_[cell].data(), cell_norms_[cell].data(),
                         cell_ids_[cell].data(), cell_items},
                        0, kernels::NumBlocks(cell_items), &sums, &heap);
    if (!status.ok()) break;
    items_scanned += cell_items;
    if (instruments_.enabled()) {
      instruments_.chunks->Increment();
      instruments_.items->Increment(cell_items);
    }
    if (control.stats != nullptr) {
      control.stats->chunks += 1;
      control.stats->items += cell_items;
      control.stats->probed_cells += 1;
    }
  }
  // Probe breadth records whatever was actually scanned, on the early-out
  // paths too, so those distributions are not biased toward fast queries.
  if (probed_cells_ != nullptr) {
    probed_cells_->Record(static_cast<double>(cells_scanned));
  }
  if (scanned_fraction_ != nullptr && total_items_ > 0) {
    scanned_fraction_->Record(static_cast<double>(items_scanned) /
                              static_cast<double>(total_items_));
  }
  if (!status.ok()) return status;
  return heap.TakeSorted();
}

double IvfAdcIndex::ExpectedScanFraction(size_t nprobe_override) const {
  if (total_items_ == 0) return 0.0;
  const size_t cells = centroids_.rows();
  const size_t d = centroids_.cols();
  const size_t nprobe = std::min(
      nprobe_override == 0 ? options_.nprobe : nprobe_override, cells);

  // For a query whose nearest centroid is cell c, Search scans the nprobe
  // cells closest to the query — approximated here by the nprobe cells
  // closest to centroid c. Weight each seed cell by its own item mass (the
  // empirical query distribution), giving the mass-aware expectation rather
  // than the uniform nprobe/cells estimate.
  const double total = static_cast<double>(total_items_);
  double expected = 0.0;
  std::vector<std::pair<float, uint32_t>> by_dist(cells);
  for (size_t c = 0; c < cells; ++c) {
    const double seed_weight =
        static_cast<double>(cell_ids_[c].size()) / total;
    if (seed_weight == 0.0) continue;
    const float* seed = centroids_.row(c);
    for (size_t o = 0; o < cells; ++o) {
      const float* other = centroids_.row(o);
      float dot = 0.0f;
      for (size_t j = 0; j < d; ++j) dot += seed[j] * other[j];
      by_dist[o] = {centroid_norms_[o] - 2.0f * dot,
                    static_cast<uint32_t>(o)};
    }
    std::partial_sort(by_dist.begin(), by_dist.begin() + nprobe,
                      by_dist.end());
    double scanned = 0.0;
    for (size_t p = 0; p < nprobe; ++p) {
      scanned += static_cast<double>(cell_ids_[by_dist[p].second].size());
    }
    expected += seed_weight * (scanned / total);
  }
  return expected;
}

namespace {
// Format: magic, u32 version, payload, checksum footer. Footered from its
// first version (there are no legacy IVF files). v2 stores cell codes in
// the blocked fast-scan layout (preceded by its block width) instead of
// item-major bytes, so a load pays no repacking; v1 files are repacked on
// load.
constexpr uint32_t kIvfMagic = 0x4c54'4956;  // "LTIV"
constexpr uint32_t kIvfVersion = 2;
}  // namespace

void IvfAdcIndex::SelectKernel() {
  // K <= 256 is an IVF build invariant; M > 256 would overflow the u16
  // accumulators, so such indexes stay on the exact float path.
  scan_kernel_ = kernels::ScanKernel{};
  if (codebooks_.size() <= 256 && !codebooks_.empty()) {
    scan_kernel_ =
        kernels::SelectScanKernel(kernels::PadCodewords(codebooks_[0].rows()));
  }
}

Status IvfAdcIndex::Save(const std::string& path) const {
  BinaryWriter writer(path);
  writer.WriteU32(kIvfMagic);
  writer.WriteU32(kIvfVersion);
  writer.WriteU32(static_cast<uint32_t>(kernels::kBlockItems));
  writer.WriteU64(options_.num_cells);
  writer.WriteU64(options_.nprobe);
  writer.WriteI64(options_.kmeans_iterations);
  writer.WriteU64(options_.seed);
  writer.WriteU64(total_items_);
  writer.WriteU64(centroids_.rows());
  writer.WriteU64(centroids_.cols());
  writer.WriteF32Vector(centroids_.storage());
  writer.WriteF32Vector(centroid_norms_);
  WriteCodebooks(codebooks_, writer);
  for (size_t c = 0; c < cell_ids_.size(); ++c) {
    writer.WriteU32Vector(cell_ids_[c]);
    writer.WriteBytes(cell_codes_[c]);
    writer.WriteF32Vector(cell_norms_[c]);
  }
  return writer.Close();
}

Result<IvfAdcIndex> IvfAdcIndex::Load(const std::string& path) {
  BinaryReader reader(path);
  const uint32_t magic = reader.ReadU32();
  if (!reader.status().ok()) return reader.status();
  if (magic != kIvfMagic) {
    return Status::IoError("IvfAdcIndex: bad magic in " + path);
  }
  const uint32_t version = reader.ReadU32();
  if (!reader.status().ok()) return reader.status();
  if (version < 1 || version > kIvfVersion) {
    return Status::IoError("IvfAdcIndex: unsupported format version");
  }
  if (version >= 2) {
    const uint32_t scan_block = reader.ReadU32();
    if (!reader.status().ok()) return reader.status();
    if (scan_block != kernels::kBlockItems) {
      return Status::IoError("IvfAdcIndex: unsupported scan layout");
    }
  }

  IvfAdcIndex idx;
  idx.options_.num_cells = reader.ReadU64();
  idx.options_.nprobe = reader.ReadU64();
  idx.options_.kmeans_iterations =
      static_cast<int>(reader.ReadI64());
  idx.options_.seed = reader.ReadU64();
  idx.total_items_ = reader.ReadU64();
  const size_t cells = reader.ReadU64();
  const size_t d = reader.ReadU64();
  if (!reader.status().ok()) return reader.status();
  LIGHTLT_RETURN_IF_ERROR(idx.options_.Validate());
  if (cells == 0 || cells > (1u << 24) || d == 0 || d > (1u << 20)) {
    return Status::IoError("IvfAdcIndex: corrupt coarse quantizer shape");
  }
  std::vector<float> centroid_data = reader.ReadF32Vector();
  if (!reader.status().ok()) return reader.status();
  if (centroid_data.size() != cells * d) {
    return Status::IoError("IvfAdcIndex: centroid payload size mismatch");
  }
  idx.centroids_ = Matrix(cells, d, std::move(centroid_data));
  idx.centroid_norms_ = reader.ReadF32Vector();
  if (!reader.status().ok()) return reader.status();
  if (idx.centroid_norms_.size() != cells) {
    return Status::IoError("IvfAdcIndex: centroid norm table mismatch");
  }

  LIGHTLT_RETURN_IF_ERROR(ReadCodebooks(reader, &idx.codebooks_));
  const size_t m = idx.codebooks_.size();
  const size_t k = idx.codebooks_[0].rows();
  if (k > 256 || idx.codebooks_[0].cols() != d) {
    return Status::IoError("IvfAdcIndex: corrupt codebook shape");
  }

  idx.cell_ids_.resize(cells);
  idx.cell_codes_.resize(cells);
  idx.cell_norms_.resize(cells);
  uint64_t items_seen = 0;
  for (size_t c = 0; c < cells; ++c) {
    idx.cell_ids_[c] = reader.ReadU32Vector();
    std::vector<uint8_t> codes = reader.ReadBytes();
    idx.cell_norms_[c] = reader.ReadF32Vector();
    if (!reader.status().ok()) return reader.status();
    const size_t n = idx.cell_ids_[c].size();
    const size_t expected_bytes =
        version >= 2 ? kernels::NumBlocks(n) * m * kernels::kBlockItems
                     : n * m;
    if (codes.size() != expected_bytes || idx.cell_norms_[c].size() != n) {
      return Status::IoError("IvfAdcIndex: cell payload size mismatch");
    }
    for (const uint32_t id : idx.cell_ids_[c]) {
      if (id >= idx.total_items_) {
        return Status::IoError("IvfAdcIndex: cell id out of range");
      }
    }
    // Every stored byte indexes the lookup tables, so validate the whole
    // payload — in v2 that includes the zeroed tail-lane padding.
    for (const uint8_t code : codes) {
      if (code >= k) {
        return Status::IoError("IvfAdcIndex: stored code out of range");
      }
    }
    if (version >= 2) {
      idx.cell_codes_[c] = std::move(codes);
    } else {
      kernels::BuildBlockedCodes(codes.data(), n, m, &idx.cell_codes_[c]);
    }
    items_seen += n;
  }
  if (items_seen != idx.total_items_) {
    return Status::IoError("IvfAdcIndex: item count mismatch");
  }
  LIGHTLT_RETURN_IF_ERROR(reader.VerifyFooter());
  idx.SelectKernel();
  return idx;
}

void IvfAdcIndex::Instrument(obs::MetricsRegistry* registry,
                             const std::string& prefix) {
  instruments_.Register(registry, prefix);
  probed_cells_ = registry->GetHistogram(prefix + "probed_cells");
  scanned_fraction_ = registry->GetHistogram(prefix + "scanned_fraction");
}

size_t IvfAdcIndex::MemoryBytes() const {
  size_t bytes = centroids_.size() * sizeof(float);
  bytes += centroid_norms_.size() * sizeof(float);
  for (const auto& book : codebooks_) bytes += book.size() * sizeof(float);
  for (size_t c = 0; c < cell_ids_.size(); ++c) {
    bytes += cell_ids_[c].size() * sizeof(uint32_t);
    bytes += cell_codes_[c].size();
    bytes += cell_norms_[c].size() * sizeof(float);
  }
  return bytes;
}

}  // namespace lightlt::index
