// The one fast-scan core of flat and IVF ADC search (DESIGN.md §12): run
// the accumulate kernel over 32-item blocks of blocked codes, then rescore
// in float only the items whose approximate score could still enter a
// bounded top-k heap. The flat index calls it once per scan chunk, the IVF
// index once per probed cell.

#ifndef LIGHTLT_INDEX_SCAN_CORE_H_
#define LIGHTLT_INDEX_SCAN_CORE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/index/kernels/scan_kernels.h"
#include "src/tensor/matrix.h"
#include "src/util/deadline.h"
#include "src/util/status.h"

namespace lightlt::index {

/// A (database id, squared distance) search hit.
struct SearchHit {
  uint32_t id;
  float distance;
};

/// "a is a better hit than b": ascending distance, ties by ascending id —
/// the shared tie-break of every scan path (a tie flip between the flat and
/// IVF paths reads as a spurious shadow-recall miss).
inline bool BetterHit(const SearchHit& a, const SearchHit& b) {
  return a.distance < b.distance ||
         (a.distance == b.distance && a.id < b.id);
}

/// Per-query lookup tables lut[cb*K + j] = <q, C_cb[j]>, O(dMK) (§IV-B):
/// the one builder of both indexes, so their exact scores agree.
std::vector<float> BuildLookupTables(const std::vector<Matrix>& codebooks,
                                     const float* query);

/// The best `capacity` hits offered so far, worst on top.
class TopKHeap {
 public:
  explicit TopKHeap(size_t capacity) : capacity_(capacity) {
    hits_.reserve(capacity);
  }
  size_t capacity() const { return capacity_; }
  /// Distance of the hit a better one would evict; +inf until full.
  float worst() const {
    return hits_.size() < capacity_ ? std::numeric_limits<float>::infinity()
                                    : hits_.front().distance;
  }
  void Offer(const SearchHit& hit);
  /// The hits best first; leaves the heap empty.
  std::vector<SearchHit> TakeSorted();

 private:
  size_t capacity_;
  std::vector<SearchHit> hits_;
};

/// Items in the blocked fast-scan layout, with their reconstruction norms
/// and database ids (null: an item's index is its id).
struct BlockedItems {
  const uint8_t* codes = nullptr;
  const float* norms = nullptr;
  const uint32_t* ids = nullptr;
  size_t size = 0;
};

/// One query's scan inputs: the m x k float tables, their quantized form
/// and its kernel (a null kernel rescores every item), and the control
/// (null = uncontrolled).
struct ScanQuery {
  const float* lut = nullptr;
  size_t m = 0;
  size_t k = 0;
  const kernels::QuantizedLut* qlut = nullptr;
  kernels::AccumulateFn accumulate = nullptr;
  const ScanControl* control = nullptr;
};

/// Scans blocks [block_begin, block_end) of `items` into `heap`: the kernel
/// sums them into `sums`, then only items with approx - ScoreErrorBound()
/// <= heap->worst() are rescored exactly and offered. Skipping is exact: a
/// skipped item has exact >= approx - B > worst. Rescores count into the
/// control's stats (`shortlist`, m `codes_decoded` each) and poll the
/// control every check_every_items, since a degenerate LUT passes every
/// item; the control's status is the only failure.
Status ScanBlocks(const ScanQuery& query, const BlockedItems& items,
                  size_t block_begin, size_t block_end,
                  std::vector<uint16_t>* sums, TopKHeap* heap);

}  // namespace lightlt::index

#endif  // LIGHTLT_INDEX_SCAN_CORE_H_
