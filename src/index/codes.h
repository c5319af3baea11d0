// Bit-packed storage for quantization codes, plus the codebook checks and
// persistence the ADC and IVF indexes share.
//
// Each database item is M codes, each in [0, K). Codes are packed at
// ceil(log2 K) bits, giving the paper's (M/8)*log2(K) bytes-per-item storage
// cost (§IV-A).

#ifndef LIGHTLT_INDEX_CODES_H_
#define LIGHTLT_INDEX_CODES_H_

#include <cstdint>
#include <vector>

#include "src/tensor/matrix.h"
#include "src/util/check.h"
#include "src/util/io.h"
#include "src/util/status.h"

namespace lightlt::index {

/// Number of bits needed to store a code in [0, K).
size_t BitsPerCode(size_t num_codewords);

/// Packed (num_items x num_codebooks) code table.
class PackedCodes {
 public:
  PackedCodes() = default;
  PackedCodes(size_t num_items, size_t num_codebooks, size_t num_codewords);

  size_t num_items() const { return num_items_; }
  size_t num_codebooks() const { return num_codebooks_; }
  size_t num_codewords() const { return num_codewords_; }
  size_t bits_per_code() const { return bits_per_code_; }

  /// Stores code `value` for (item, codebook); value must be < K.
  void Set(size_t item, size_t codebook, uint32_t value);

  /// Reads the code for (item, codebook).
  uint32_t Get(size_t item, size_t codebook) const;

  /// Streams every code in storage order (item-major, then codebook) to
  /// `fn(item, codebook, code)`. A sequential bit cursor avoids the per-Get
  /// division/modulo, which dominates the ADC scan otherwise — this is the
  /// hot path of the paper's O(nM) lookup phase (§IV-B).
  template <typename Fn>
  void ForEachCode(Fn&& fn) const {
    const uint64_t mask = (1ull << bits_per_code_) - 1;
    size_t word = 0;
    size_t shift = 0;
    for (size_t item = 0; item < num_items_; ++item) {
      for (size_t cb = 0; cb < num_codebooks_; ++cb) {
        uint64_t value = bits_[word] >> shift;
        const size_t spill = shift + bits_per_code_;
        if (spill > 64) {
          value |= bits_[word + 1] << (64 - shift);
        }
        fn(item, cb, static_cast<uint32_t>(value & mask));
        shift += bits_per_code_;
        if (shift >= 64) {
          shift -= 64;
          ++word;
        }
      }
    }
  }

  /// Payload bytes of the packed bit array.
  size_t MemoryBytes() const { return bits_.size() * sizeof(uint64_t); }

  /// Serialization for persisted indexes.
  void Save(BinaryWriter& writer) const;
  static Result<PackedCodes> Load(BinaryReader& reader);

 private:
  size_t BitOffset(size_t item, size_t codebook) const {
    return (item * num_codebooks_ + codebook) * bits_per_code_;
  }

  size_t num_items_ = 0;
  size_t num_codebooks_ = 0;
  size_t num_codewords_ = 0;
  size_t bits_per_code_ = 0;
  std::vector<uint64_t> bits_;
};

/// Checks for M >= 1 codebooks of one K x d shape.
Status ValidateCodebooks(const std::vector<Matrix>& codebooks);

/// ||Σ_cb C_cb[codes[cb]]||², the per-item reconstruction norm of ADC
/// scoring, accumulated in double; `recon` is scratch. Fails unless `codes`
/// is M codes in [0, K).
Result<float> ReconstructionNorm(const std::vector<Matrix>& codebooks,
                                 const std::vector<uint32_t>& codes,
                                 std::vector<float>* recon);

/// Codebook persistence of the index formats: M, then each codebook's rows,
/// cols and floats. Reading admits 1 <= M <= 4096 codebooks of one K x d
/// shape with K >= 2 and d >= 1.
void WriteCodebooks(const std::vector<Matrix>& codebooks, BinaryWriter& writer);
Status ReadCodebooks(BinaryReader& reader, std::vector<Matrix>* codebooks);

}  // namespace lightlt::index

#endif  // LIGHTLT_INDEX_CODES_H_
