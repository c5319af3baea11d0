#include "src/index/adc_index.h"

#include <algorithm>
#include <numeric>

#include "src/obs/profile.h"
#include "src/util/chaos.h"
#include "src/util/check.h"
#include "src/util/io.h"
#include "src/util/timer.h"

namespace lightlt::index {


void ScanInstruments::Register(obs::MetricsRegistry* registry,
                               const std::string& prefix) {
  chunks = registry->GetCounter(prefix + "scan_chunks_total");
  items = registry->GetCounter(prefix + "scan_items_total");
  overshoot = registry->GetCounter(prefix + "scan_deadline_overshoot_total");
  chunk_seconds = registry->GetHistogram(prefix + "scan_chunk_seconds");
}

void AdcIndex::Instrument(obs::MetricsRegistry* registry,
                          const std::string& prefix) {
  instruments_.Register(registry, prefix);
}

Result<AdcIndex> AdcIndex::Build(
    const std::vector<Matrix>& codebooks,
    const std::vector<std::vector<uint32_t>>& item_codes) {
  LIGHTLT_RETURN_IF_ERROR(ValidateCodebooks(codebooks));
  AdcIndex idx;
  idx.codebooks_ = codebooks;
  idx.codes_ = PackedCodes(item_codes.size(), codebooks.size(),
                           codebooks[0].rows());
  idx.recon_norms_.resize(item_codes.size());
  std::vector<float> recon;
  for (size_t i = 0; i < item_codes.size(); ++i) {
    auto norm = ReconstructionNorm(codebooks, item_codes[i], &recon);
    if (!norm.ok()) return norm.status();
    idx.recon_norms_[i] = norm.value();
    for (size_t cb = 0; cb < codebooks.size(); ++cb) {
      idx.codes_.Set(i, cb, item_codes[i][cb]);
    }
  }
  idx.BuildScanCache();
  return idx;
}

void AdcIndex::BuildScanCache() {
  scan_codes_.clear();
  blocked_codes_.clear();
  scan_kernel_ = kernels::ScanKernel{};
  if (num_codewords() > 256) return;
  scan_codes_.resize(codes_.num_items() * codebooks_.size());
  uint8_t* out = scan_codes_.data();
  codes_.ForEachCode([out, m = codebooks_.size()](size_t item, size_t cb,
                                                  uint32_t code) {
    out[item * m + cb] = static_cast<uint8_t>(code);
  });
  // When a fast-scan kernel is selected, the blocked/transposed layout
  // replaces the item-major cache as the one scan format (exact scoring
  // reads it strided) — the byte cost stays one byte per code plus tail
  // padding. M > 256 could overflow the u16 accumulators, so such indexes
  // stay on the item-major exact path.
  if (codebooks_.size() > 256 || codes_.num_items() == 0) return;
  scan_kernel_ = kernels::SelectScanKernel(
      kernels::PadCodewords(num_codewords()));
  if (scan_kernel_.fn != nullptr) {
    kernels::BuildBlockedCodes(scan_codes_.data(), codes_.num_items(),
                               codebooks_.size(), &blocked_codes_);
    scan_codes_.clear();
    scan_codes_.shrink_to_fit();
  }
}

void AdcIndex::ScoreRange(const float* lut, size_t begin, size_t end,
                          float* scores) const {
  const size_t m = codebooks_.size();
  const size_t k = num_codewords();
  // Whichever scan cache is live — the blocked fast-scan layout, the
  // item-major bytes, or (K > 256) the packed bits — each item sums its
  // codebooks in the same order, so the scores are bit-identical.
  const auto score = [&](auto code_at) {
    for (size_t i = begin; i < end; ++i) {
      float dot = 0.0f;
      for (size_t cb = 0; cb < m; ++cb) dot += lut[cb * k + code_at(i, cb)];
      scores[i] = recon_norms_[i] - 2.0f * dot;
    }
  };
  if (!blocked_codes_.empty()) {
    score([&](size_t i, size_t cb) {
      return kernels::BlockedCodeAt(blocked_codes_.data(), m, i, cb);
    });
  } else if (!scan_codes_.empty()) {
    score([&](size_t i, size_t cb) { return scan_codes_[i * m + cb]; });
  } else {
    score([&](size_t i, size_t cb) { return codes_.Get(i, cb); });
  }
}

void AdcIndex::ComputeScores(const float* query,
                             std::vector<float>* scores) const {
  // Legacy uncontrolled scan (eval, RankAll): one uninterrupted pass, no
  // lifecycle checks and no chaos instrumentation.
  const std::vector<float> lut = BuildLookupTables(codebooks_, query);
  obs::ProfilePhase scan_phase("adc_scan");
  scores->resize(codes_.num_items());
  ScoreRange(lut.data(), 0, codes_.num_items(), scores->data());
}

namespace {

// Chunk size of the uncontrolled fast scan: no polling, but each chunk's
// rescore still runs while its codes and sums are in L1.
constexpr size_t kUncontrolledChunkItems = 1024;

// The controlled-scan chunk protocol over [0, n): polls `control` between
// chunks of `chunk` items (a stop counts as a deadline overshoot), runs the
// chaos hook, calls `scan(begin, end)`, and counts each chunk into the
// instruments and the control's stats. A null control runs the chunks bare.
template <typename Scan>
Status ForEachChunk(size_t n, size_t chunk, const ScanControl* control,
                    const ScanInstruments& instruments, Scan&& scan) {
  for (size_t begin = 0; begin < n; begin += chunk) {
    if (control != nullptr && begin > 0) {
      const Status check = control->Check();
      if (!check.ok()) {
        // The request's budget ran out mid-scan: the chunk just scored was
        // the overshoot DESIGN.md §9 bounds.
        if (instruments.enabled()) instruments.overshoot->Increment();
        return check;
      }
    }
    if (control != nullptr) LIGHTLT_RETURN_IF_ERROR(ChaosOnScanChunk());
    const size_t end = std::min(begin + chunk, n);
    LIGHTLT_RETURN_IF_ERROR(scan(begin, end));
    if (control != nullptr) {
      if (instruments.enabled()) {
        instruments.chunks->Increment();
        instruments.items->Increment(end - begin);
      }
      if (control->stats != nullptr) {
        control->stats->chunks += 1;
        control->stats->items += end - begin;
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Status AdcIndex::ComputeScores(const float* query, std::vector<float>* scores,
                               const ScanControl& control) const {
  const size_t n = codes_.num_items();
  std::vector<float> lut;
  {
    obs::ProfilePhase lut_phase("lut_build");
    lut = BuildLookupTables(codebooks_, query);
  }
  if (control.stats != nullptr) control.stats->lut_builds += 1;
  obs::ProfilePhase scan_phase("adc_scan");
  scores->resize(n);
  // Score score_i = ||o_i||^2 - 2 sum_cb lut[code] in chunks, polling the
  // control between chunks: an expired or cancelled request overshoots its
  // budget by at most one chunk of scoring work. A trivial control with
  // chaos disarmed scans in one chunk, so the hot loop itself carries no
  // per-vector instrumentation.
  const size_t chunk = control.Trivial() && !ChaosArmed()
                           ? std::max<size_t>(1, n)
                           : std::max<size_t>(1, control.check_every_items);
  return ForEachChunk(n, chunk, &control, instruments_,
                      [&](size_t begin, size_t end) {
                        ScopedTimer timer(instruments_.chunk_seconds);
                        ScoreRange(lut.data(), begin, end, scores->data());
                        return Status::Ok();
                      });
}

std::vector<SearchHit> AdcIndex::TopKFromScores(
    const std::vector<float>& scores, size_t top_k) {
  // The shared heap breaks ties at the k boundary by ascending id, as the
  // fast-scan and IVF paths do: the selection is a pure function of the
  // scores (a tie flip would read as a spurious shadow-recall miss).
  TopKHeap heap(std::min(top_k, scores.size()));
  for (size_t i = 0; i < scores.size(); ++i) {
    heap.Offer({static_cast<uint32_t>(i), scores[i]});
  }
  return heap.TakeSorted();
}

Result<std::vector<SearchHit>> AdcIndex::SearchFastScan(
    const float* query, size_t top_k, const ScanControl* control) const {
  const size_t n = codes_.num_items();
  const size_t m = codebooks_.size();
  const size_t k = num_codewords();
  const size_t keep = std::min(top_k, n);
  if (keep == 0) return std::vector<SearchHit>{};

  std::vector<float> lut;
  kernels::QuantizedLut qlut;
  {
    // Both tables count: the float LUT plus its quantized companion are
    // separate per-query constructions in the resource vector.
    obs::ProfilePhase lut_phase("lut_build");
    lut = BuildLookupTables(codebooks_, query);
    qlut = kernels::QuantizeLut(lut.data(), m, k);
  }
  if (control != nullptr && control->stats != nullptr) {
    control->stats->lut_builds += 2;
  }
  obs::ProfilePhase scan_phase("adc_scan");

  // Chunking stays item-granular — ceil(n / check_every) logical chunks,
  // each polling deadline/cancellation and running the chaos hook —
  // exactly like the exact scan, so deadline overshoot and injected
  // per-chunk latency are independent of the 32-item kernel block size.
  // Kernel blocks advance lazily underneath the chunk accounting: a chunk
  // scans (and rescores) every not-yet-scanned block it overlaps, at most
  // one partial block of read-ahead when check_every < kBlockItems. The
  // uncontrolled flavour walks the same chunks without polling, so `sums`
  // never grows past one chunk.
  const ScanQuery scan{lut.data(), m, k, &qlut, scan_kernel_.fn, control};
  const BlockedItems items{blocked_codes_.data(), recon_norms_.data(),
                           nullptr, n};
  TopKHeap heap(keep);
  std::vector<uint16_t> sums;
  const size_t check_every =
      control == nullptr ? kUncontrolledChunkItems
                         : std::max<size_t>(1, control->check_every_items);
  size_t next_block = 0;
  LIGHTLT_RETURN_IF_ERROR(ForEachChunk(
      n, check_every, control, instruments_, [&](size_t, size_t end) {
        const size_t block_end = kernels::NumBlocks(end);
        if (block_end <= next_block) return Status::Ok();
        ScopedTimer timer(control == nullptr ? nullptr
                                             : instruments_.chunk_seconds);
        const Status scanned =
            ScanBlocks(scan, items, next_block, block_end, &sums, &heap);
        next_block = block_end;
        return scanned;
      }));
  return heap.TakeSorted();
}

std::vector<SearchHit> AdcIndex::Search(const float* query,
                                        size_t top_k) const {
  if (FastScanEnabled()) {
    // Uncontrolled flavour: no polling, chaos, or instrumentation, so the
    // only failure paths are compiled out — value() is always present.
    return SearchFastScan(query, top_k, nullptr).value();
  }
  std::vector<float> scores;
  ComputeScores(query, &scores);
  return TopKFromScores(scores, top_k);
}

Result<std::vector<SearchHit>> AdcIndex::Search(
    const float* query, size_t top_k, const ScanControl& control) const {
  if (FastScanEnabled()) return SearchFastScan(query, top_k, &control);
  std::vector<float> scores;
  LIGHTLT_RETURN_IF_ERROR(ComputeScores(query, &scores, control));
  return TopKFromScores(scores, top_k);
}

std::vector<uint32_t> AdcIndex::RankAll(const float* query) const {
  std::vector<float> scores;
  ComputeScores(query, &scores);
  std::vector<uint32_t> ids(scores.size());
  std::iota(ids.begin(), ids.end(), 0u);
  std::stable_sort(ids.begin(), ids.end(), [&](uint32_t a, uint32_t b) {
    return scores[a] < scores[b];
  });
  return ids;
}

Matrix AdcIndex::Reconstruct(size_t item) const {
  Matrix out(1, dim());
  for (size_t cb = 0; cb < codebooks_.size(); ++cb) {
    const float* word = codebooks_[cb].row(codes_.Get(item, cb));
    for (size_t j = 0; j < dim(); ++j) out[j] += word[j];
  }
  return out;
}

size_t AdcIndex::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& cb : codebooks_) bytes += cb.size() * sizeof(float);
  // Operational code storage: exactly one scan cache is live — the blocked
  // fast-scan layout (item-major bytes plus tail padding) when a kernel is
  // selected, else the byte-wide item-major cache (equal to the packed
  // array at the paper's K=256), else the packed bits.
  if (!blocked_codes_.empty()) {
    bytes += blocked_codes_.size();
  } else {
    bytes += scan_codes_.empty() ? codes_.MemoryBytes() : scan_codes_.size();
  }
  bytes += recon_norms_.size() * sizeof(float);
  return bytes;
}

size_t AdcIndex::TheoreticalQueryOps() const {
  return dim() * num_codebooks() * num_codewords() +
         num_items() * num_codebooks();
}

namespace {
// Legacy format: magic directly followed by the payload, no version field,
// no integrity data. Still readable.
constexpr uint32_t kAdcMagicV1 = 0x4144'4331;  // "ADC1"
// Current format: magic, u32 version, payload, checksum footer; written
// atomically. The magic changed because v1 carried no version field.
// v3 adds the scan-layout block width so a reader whose blocked fast-scan
// layout diverged refuses the file instead of mis-scanning it.
constexpr uint32_t kAdcMagicV2 = 0x4144'4332;  // "ADC2"
constexpr uint32_t kAdcVersion = 3;
}  // namespace

Status AdcIndex::Save(const std::string& path) const {
  BinaryWriter writer(path);
  writer.WriteU32(kAdcMagicV2);
  writer.WriteU32(kAdcVersion);
  writer.WriteU32(static_cast<uint32_t>(kernels::kBlockItems));
  WriteCodebooks(codebooks_, writer);
  codes_.Save(writer);
  writer.WriteF32Vector(recon_norms_);
  return writer.Close();
}

Result<AdcIndex> AdcIndex::Load(const std::string& path) {
  BinaryReader reader(path);
  const uint32_t magic = reader.ReadU32();
  // An unreadable/truncated file is an I/O error, not a bad-magic file.
  if (!reader.status().ok()) return reader.status();
  uint32_t version = 1;
  if (magic == kAdcMagicV2) {
    version = reader.ReadU32();
    if (!reader.status().ok()) return reader.status();
    if (version < 2 || version > kAdcVersion) {
      return Status::IoError("AdcIndex: unsupported format version");
    }
  } else if (magic != kAdcMagicV1) {
    return Status::IoError("AdcIndex: bad magic in " + path);
  }
  if (version >= 3) {
    const uint32_t scan_block = reader.ReadU32();
    if (!reader.status().ok()) return reader.status();
    if (scan_block != kernels::kBlockItems) {
      return Status::IoError("AdcIndex: unsupported scan layout");
    }
  }
  AdcIndex idx;
  LIGHTLT_RETURN_IF_ERROR(ReadCodebooks(reader, &idx.codebooks_));
  // The scan path indexes lookup tables sized from codebook 0, so codes
  // that disagree with the codebooks would read out of bounds.
  const size_t m = idx.codebooks_.size();
  const size_t k = idx.num_codewords();
  auto codes = PackedCodes::Load(reader);
  if (!codes.ok()) return codes.status();
  idx.codes_ = std::move(codes).value();
  if (idx.codes_.num_codebooks() != m || idx.codes_.num_codewords() > k) {
    return Status::IoError("AdcIndex: codes/codebook mismatch");
  }
  // Packed code values index the lookup table rows; a corrupt bit pattern
  // above k would read past the table.
  bool codes_in_range = true;
  idx.codes_.ForEachCode([&](size_t, size_t, uint32_t code) {
    if (code >= k) codes_in_range = false;
  });
  if (!codes_in_range) {
    return Status::IoError("AdcIndex: stored code out of range");
  }
  idx.recon_norms_ = reader.ReadF32Vector();
  if (!reader.status().ok()) return reader.status();
  if (idx.recon_norms_.size() != idx.codes_.num_items()) {
    return Status::IoError("AdcIndex: norm table size mismatch");
  }
  Status integrity =
      version >= 2 ? reader.VerifyFooter() : reader.ExpectEof();
  if (!integrity.ok()) return integrity;
  idx.BuildScanCache();
  return idx;
}

}  // namespace lightlt::index
