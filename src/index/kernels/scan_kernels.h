// Fast-scan ADC scoring kernels (DESIGN.md §12).
//
// The exact ADC scan does M float-table lookups per item. These kernels
// replace the lookup loop with integer SIMD over a quantized table: the
// per-query float LUT is quantized to u8 (per-codebook bias, shared scale),
// codes are laid out in blocked/transposed groups of 32 items, and one
// shuffle instruction then scores 16–64 items per codebook. The u16 sums
// are approximate by at most one quantization step per codebook — the scan
// core (scan_core.h) rescores with the float LUT what the bound cannot rule
// out, recovering the exact top-k.
//
// Every kernel consumes the same blocked layout and produces bit-identical
// u16 sums: integer arithmetic has one answer, so the scalar kernel is the
// reference the SIMD variants are verified against (tests/scan_kernels_*).

#ifndef LIGHTLT_INDEX_KERNELS_SCAN_KERNELS_H_
#define LIGHTLT_INDEX_KERNELS_SCAN_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lightlt::index::kernels {

/// Items per block of the transposed scan layout. Within a block the codes
/// are codebook-major: blocked[block*(32*M) + cb*32 + lane] is the code of
/// item block*32+lane for codebook cb — so a 32-byte vector load reads 32
/// items' codes for one codebook at once.
inline constexpr size_t kBlockItems = 32;

/// Padded table width for a codebook with k codewords: the smallest of
/// {16, 64, 256} that fits, or 0 when k > 256 (no byte-code fast path).
size_t PadCodewords(size_t k);

/// Number of 32-item blocks covering n items (tail block zero-padded).
inline size_t NumBlocks(size_t n) {
  return (n + kBlockItems - 1) / kBlockItems;
}

/// Repacks item-major byte codes (codes[i*m + cb]) into the blocked layout.
/// Output is NumBlocks(n) * m * kBlockItems bytes; tail lanes are code 0
/// (valid everywhere), and callers discard sums past n.
void BuildBlockedCodes(const uint8_t* item_major, size_t n, size_t m,
                       std::vector<uint8_t>* blocked);

/// Reads one code back out of a blocked array (exact rescore, tests).
inline uint8_t BlockedCodeAt(const uint8_t* blocked, size_t m, size_t item,
                             size_t cb) {
  const size_t block = item / kBlockItems;
  const size_t lane = item % kBlockItems;
  return blocked[(block * m + cb) * kBlockItems + lane];
}

/// A per-query float LUT quantized to u8. Reconstruction of one table
/// entry is entry*scale + (per-codebook bias); the per-item integer sum
/// reconstructs the dot product as sum*scale + bias_sum, with absolute
/// error at most 0.5*scale per codebook (round-to-nearest).
struct QuantizedLut {
  std::vector<uint8_t> table;  ///< m * k_padded entries, padding zeroed
  size_t m = 0;
  size_t k_padded = 0;
  float scale = 0.0f;          ///< shared step; 0 when the LUT is constant
  float bias_sum = 0.0f;       ///< sum over codebooks of the per-cb minimum

  /// Upper bound on |approx_score - exact_score| for scores of the form
  /// norm - 2*dot: two times the dot-product bound of 0.5*scale*m, padded
  /// for float rounding in the reconstruction itself.
  float ScoreErrorBound() const {
    return scale * static_cast<float>(m) * 1.001f + 1e-6f;
  }
};

/// Quantizes an m x k float LUT (lut[cb*k + j]) to u8. k must be <= 256.
QuantizedLut QuantizeLut(const float* lut, size_t m, size_t k);

/// Accumulates quantized table entries over blocked codes:
///   sums[b*32 + lane] = sum_cb table[cb*k_padded + code(b, cb, lane)]
/// for b in [0, num_blocks). m*255 must fit u16 (m <= 256, enforced by
/// callers). All implementations produce bit-identical sums.
using AccumulateFn = void (*)(const uint8_t* blocked, size_t num_blocks,
                              size_t m, size_t k_padded,
                              const uint8_t* table, uint16_t* sums);

/// A selected kernel: the function plus the name it was selected under
/// ("scalar", "avx2", "avx512", "neon"). fn == nullptr means the fast-scan
/// path is disabled (k too wide, or LIGHTLT_SCAN_KERNEL=off).
struct ScanKernel {
  AccumulateFn fn = nullptr;
  const char* name = "off";
};

/// True when this CPU can run the named kernel family at all.
bool ScanKernelSupported(const std::string& name);

/// The kernel for `name` at a given padded width, or fn == nullptr when the
/// family is unsupported on this CPU or has no implementation at k_padded.
/// "scalar" always resolves for k_padded in {16, 64, 256}.
ScanKernel ScanKernelByName(const std::string& name, size_t k_padded);

/// Startup selection: the fastest supported kernel for k_padded, honouring
/// the LIGHTLT_SCAN_KERNEL environment override (read once per process):
///   auto (default) | scalar | avx2 | avx512 | neon | off
/// An override naming an unsupported family falls back to scalar rather
/// than silently re-enabling SIMD.
ScanKernel SelectScanKernel(size_t k_padded);

/// The resolved override mode ("auto" unless the env var says otherwise).
const std::string& ScanKernelMode();

/// Names with an implementation compiled in and runnable on this CPU, in
/// preference order (bench registration, diagnostics).
std::vector<std::string> AvailableScanKernels();

}  // namespace lightlt::index::kernels

#endif  // LIGHTLT_INDEX_KERNELS_SCAN_KERNELS_H_
