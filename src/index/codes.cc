#include "src/index/codes.h"

#include <cstring>

namespace lightlt::index {

size_t BitsPerCode(size_t num_codewords) {
  LIGHTLT_CHECK_GT(num_codewords, 1u);
  size_t bits = 1;
  while ((1ull << bits) < num_codewords) ++bits;
  return bits;
}

PackedCodes::PackedCodes(size_t num_items, size_t num_codebooks,
                         size_t num_codewords)
    : num_items_(num_items),
      num_codebooks_(num_codebooks),
      num_codewords_(num_codewords),
      bits_per_code_(BitsPerCode(num_codewords)) {
  const size_t total_bits = num_items * num_codebooks * bits_per_code_;
  bits_.assign((total_bits + 63) / 64, 0);
}

void PackedCodes::Set(size_t item, size_t codebook, uint32_t value) {
  LIGHTLT_CHECK_LT(item, num_items_);
  LIGHTLT_CHECK_LT(codebook, num_codebooks_);
  LIGHTLT_CHECK_LT(value, num_codewords_);
  const size_t offset = BitOffset(item, codebook);
  const size_t word = offset / 64;
  const size_t shift = offset % 64;
  const uint64_t mask = ((1ull << bits_per_code_) - 1) << shift;
  bits_[word] = (bits_[word] & ~mask) | (static_cast<uint64_t>(value) << shift);
  const size_t spill = shift + bits_per_code_;
  if (spill > 64) {
    const size_t hi_bits = spill - 64;
    const uint64_t hi_mask = (1ull << hi_bits) - 1;
    bits_[word + 1] = (bits_[word + 1] & ~hi_mask) |
                      (static_cast<uint64_t>(value) >> (bits_per_code_ - hi_bits));
  }
}

uint32_t PackedCodes::Get(size_t item, size_t codebook) const {
  LIGHTLT_CHECK_LT(item, num_items_);
  LIGHTLT_CHECK_LT(codebook, num_codebooks_);
  const size_t offset = BitOffset(item, codebook);
  const size_t word = offset / 64;
  const size_t shift = offset % 64;
  uint64_t value = bits_[word] >> shift;
  const size_t spill = shift + bits_per_code_;
  if (spill > 64) {
    value |= bits_[word + 1] << (64 - shift);
  }
  return static_cast<uint32_t>(value & ((1ull << bits_per_code_) - 1));
}

void PackedCodes::Save(BinaryWriter& writer) const {
  writer.WriteU64(num_items_);
  writer.WriteU64(num_codebooks_);
  writer.WriteU64(num_codewords_);
  std::vector<uint8_t> raw(bits_.size() * sizeof(uint64_t));
  std::memcpy(raw.data(), bits_.data(), raw.size());
  writer.WriteBytes(raw);
}

Result<PackedCodes> PackedCodes::Load(BinaryReader& reader) {
  const size_t num_items = reader.ReadU64();
  const size_t num_codebooks = reader.ReadU64();
  const size_t num_codewords = reader.ReadU64();
  std::vector<uint8_t> raw = reader.ReadBytes();
  if (!reader.status().ok()) return reader.status();
  if (num_codewords < 2 || num_codewords > (1u << 24)) {
    return Status::IoError("PackedCodes: corrupt codeword count");
  }
  if (num_codebooks == 0 || num_codebooks > 65536) {
    return Status::IoError("PackedCodes: corrupt codebook count");
  }
  // Validate the geometry against the payload *before* constructing: the
  // constructor multiplies items * codebooks * bits, which wraps for
  // adversarial counts and could otherwise under- or over-allocate.
  const uint64_t bits = BitsPerCode(num_codewords);
  const uint64_t bits_per_item = bits * num_codebooks;
  if (num_items > (UINT64_MAX - 63) / bits_per_item) {
    return Status::IoError("PackedCodes: corrupt item count");
  }
  const uint64_t words = (num_items * bits_per_item + 63) / 64;
  if (raw.size() != words * sizeof(uint64_t)) {
    return Status::IoError("PackedCodes: payload size mismatch");
  }
  try {
    PackedCodes codes(num_items, num_codebooks, num_codewords);
    std::memcpy(codes.bits_.data(), raw.data(), raw.size());
    return codes;
  } catch (const std::exception&) {
    return Status::IoError("PackedCodes: allocation failed (corrupt file)");
  }
}

Status ValidateCodebooks(const std::vector<Matrix>& codebooks) {
  if (codebooks.empty()) return Status::InvalidArgument("no codebooks");
  for (const auto& cb : codebooks) {
    if (cb.rows() != codebooks[0].rows() ||
        cb.cols() != codebooks[0].cols()) {
      return Status::InvalidArgument("codebook shape mismatch");
    }
  }
  return Status::Ok();
}

Result<float> ReconstructionNorm(const std::vector<Matrix>& codebooks,
                                 const std::vector<uint32_t>& codes,
                                 std::vector<float>* recon) {
  if (codes.size() != codebooks.size()) {
    return Status::InvalidArgument("item code length mismatch");
  }
  recon->assign(codebooks[0].cols(), 0.0f);
  for (size_t cb = 0; cb < codes.size(); ++cb) {
    if (codes[cb] >= codebooks[cb].rows()) {
      return Status::InvalidArgument("code out of range");
    }
    const float* word = codebooks[cb].row(codes[cb]);
    for (size_t j = 0; j < recon->size(); ++j) (*recon)[j] += word[j];
  }
  double norm = 0.0;
  for (const float v : *recon) norm += static_cast<double>(v) * v;
  return static_cast<float>(norm);
}

void WriteCodebooks(const std::vector<Matrix>& codebooks,
                    BinaryWriter& writer) {
  writer.WriteU64(codebooks.size());
  for (const auto& cb : codebooks) {
    writer.WriteU64(cb.rows());
    writer.WriteU64(cb.cols());
    writer.WriteF32Vector(cb.storage());
  }
}

Status ReadCodebooks(BinaryReader& reader, std::vector<Matrix>* codebooks) {
  const size_t m = reader.ReadU64();
  if (!reader.status().ok()) return reader.status();
  if (m == 0 || m > 4096) return Status::IoError("corrupt M");
  codebooks->clear();
  codebooks->reserve(m);
  for (size_t i = 0; i < m; ++i) {
    const size_t rows = reader.ReadU64();
    const size_t cols = reader.ReadU64();
    std::vector<float> data = reader.ReadF32Vector();
    if (!reader.status().ok()) return reader.status();
    if (data.size() != rows * cols) return Status::IoError("corrupt codebook");
    if (i == 0 && (rows < 2 || cols == 0)) {
      return Status::IoError("corrupt codebook shape");
    }
    codebooks->emplace_back(rows, cols, std::move(data));
  }
  if (!ValidateCodebooks(*codebooks).ok()) {
    return Status::IoError("codebook shape mismatch");
  }
  return Status::Ok();
}

}  // namespace lightlt::index
