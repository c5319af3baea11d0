#include "src/index/scan_core.h"

#include <algorithm>

namespace lightlt::index {

std::vector<float> BuildLookupTables(const std::vector<Matrix>& codebooks,
                                     const float* query) {
  const size_t k = codebooks.empty() ? 0 : codebooks[0].rows();
  const size_t d = codebooks.empty() ? 0 : codebooks[0].cols();
  std::vector<float> lut(codebooks.size() * k);
  for (size_t cb = 0; cb < codebooks.size(); ++cb) {
    for (size_t j = 0; j < k; ++j) {
      const float* word = codebooks[cb].row(j);
      float acc = 0.0f;
      for (size_t t = 0; t < d; ++t) acc += query[t] * word[t];
      lut[cb * k + j] = acc;
    }
  }
  return lut;
}

void TopKHeap::Offer(const SearchHit& hit) {
  if (hits_.size() < capacity_) {
    hits_.push_back(hit);
    std::push_heap(hits_.begin(), hits_.end(), BetterHit);
  } else if (capacity_ > 0 && BetterHit(hit, hits_.front())) {
    std::pop_heap(hits_.begin(), hits_.end(), BetterHit);
    hits_.back() = hit;
    std::push_heap(hits_.begin(), hits_.end(), BetterHit);
  }
}

std::vector<SearchHit> TopKHeap::TakeSorted() {
  std::sort_heap(hits_.begin(), hits_.end(), BetterHit);
  return std::move(hits_);
}

namespace {

constexpr size_t kLanes = kernels::kBlockItems;

// Fills approx[0..32) with one block's approximate scores (+inf past the
// tail) and says whether any lane passes the gate approx - bound <= worst.
// A full block runs fixed-length loops the compiler vectorizes, so a block
// that no lane passes costs a few vector ops.
bool GateBlock(const float* norms, const uint16_t* sums, size_t lanes,
               float scale, float bias_sum, float bound, float worst,
               float* approx) {
  const auto score = [&](size_t j) {
    return norms[j] - 2.0f * (static_cast<float>(sums[j]) * scale + bias_sum);
  };
  if (lanes == kLanes) {
    for (size_t j = 0; j < kLanes; ++j) approx[j] = score(j);
  } else {
    std::fill(approx, approx + kLanes, std::numeric_limits<float>::infinity());
    for (size_t j = 0; j < lanes; ++j) approx[j] = score(j);
  }
  int32_t any = 0;
  for (size_t j = 0; j < kLanes; ++j) any |= approx[j] - bound > worst ? 0 : 1;
  return any != 0;
}

}  // namespace

Status ScanBlocks(const ScanQuery& query, const BlockedItems& items,
                  size_t block_begin, size_t block_end,
                  std::vector<uint16_t>* sums, TopKHeap* heap) {
  if (heap->capacity() == 0 || block_begin >= block_end) return Status::Ok();
  const bool gated = query.accumulate != nullptr;
  if (gated) {
    sums->resize((block_end - block_begin) * kLanes);
    query.accumulate(items.codes + block_begin * query.m * kLanes,
                     block_end - block_begin, query.m, query.qlut->k_padded,
                     query.qlut->table.data(), sums->data());
  }
  const float bound = gated ? query.qlut->ScoreErrorBound() : 0.0f;
  const size_t poll_every =
      query.control == nullptr
          ? std::numeric_limits<size_t>::max()
          : std::max<size_t>(1, query.control->check_every_items);

  Status status = Status::Ok();
  size_t rescored = 0;
  size_t until_poll = poll_every;
  float worst = heap->worst();
  // Without a kernel every approximate score stays -inf: all items pass.
  float approx[kLanes];
  std::fill(approx, approx + kLanes, -std::numeric_limits<float>::infinity());
  for (size_t b = block_begin; b < block_end && status.ok(); ++b) {
    const size_t base = b * kLanes;
    const size_t lanes = std::min(kLanes, items.size - base);
    if (gated && !GateBlock(items.norms + base,
                            sums->data() + (b - block_begin) * kLanes, lanes,
                            query.qlut->scale, query.qlut->bias_sum, bound,
                            worst, approx)) {
      continue;
    }
    for (size_t j = 0; j < lanes; ++j) {
      if (approx[j] - bound > worst) continue;
      if (until_poll == 0) {
        status = query.control->Check();
        if (!status.ok()) break;
        until_poll = poll_every;
      }
      --until_poll;
      ++rescored;
      // Exact rescore, summing codebooks in the exact scan's order.
      const size_t i = base + j;
      float dot = 0.0f;
      for (size_t cb = 0; cb < query.m; ++cb) {
        dot += query.lut[cb * query.k +
                         kernels::BlockedCodeAt(items.codes, query.m, i, cb)];
      }
      heap->Offer(
          {items.ids == nullptr ? static_cast<uint32_t>(i) : items.ids[i],
           items.norms[i] - 2.0f * dot});
      worst = heap->worst();
    }
  }
  if (query.control != nullptr && query.control->stats != nullptr) {
    query.control->stats->shortlist += rescored;
    query.control->stats->codes_decoded += rescored * query.m;
  }
  return status;
}

}  // namespace lightlt::index
