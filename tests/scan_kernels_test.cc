// Property tests for the fast-scan kernels (DESIGN.md §12): the blocked
// layout round-trips, every SIMD kernel produces bit-identical u16 sums to
// the scalar reference across random shapes and odd tails, the quantized
// LUT honours its error bound, and the kernel-backed Search returns exactly
// the same top-k as the exact scalar scan — including the K > 256 fallback.
//
// This suite runs under ASan (tools/run_fault_injection.sh) and TSan
// (tools/run_tsan.sh) as well as the plain tier-1 build.

#include "src/index/kernels/scan_kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/index/adc_index.h"
#include "src/index/ivf_index.h"
#include "src/obs/metrics.h"
#include "src/util/deadline.h"
#include "src/util/rng.h"

namespace lightlt::index {
namespace {

namespace kn = ::lightlt::index::kernels;

TEST(ScanKernelsTest, PadCodewordsTiers) {
  EXPECT_EQ(kn::PadCodewords(2), 16u);
  EXPECT_EQ(kn::PadCodewords(16), 16u);
  EXPECT_EQ(kn::PadCodewords(17), 64u);
  EXPECT_EQ(kn::PadCodewords(64), 64u);
  EXPECT_EQ(kn::PadCodewords(65), 256u);
  EXPECT_EQ(kn::PadCodewords(256), 256u);
  EXPECT_EQ(kn::PadCodewords(257), 0u);
}

TEST(ScanKernelsTest, BlockedLayoutRoundTripsWithZeroTail) {
  Rng rng(11);
  for (const size_t n : {1u, 31u, 32u, 33u, 95u, 128u}) {
    for (const size_t m : {1u, 3u, 8u}) {
      std::vector<uint8_t> item_major(n * m);
      for (auto& c : item_major) {
        c = static_cast<uint8_t>(rng.NextIndex(200) + 1);  // nonzero
      }
      std::vector<uint8_t> blocked;
      kn::BuildBlockedCodes(item_major.data(), n, m, &blocked);
      ASSERT_EQ(blocked.size(), kn::NumBlocks(n) * m * kn::kBlockItems);
      for (size_t i = 0; i < n; ++i) {
        for (size_t cb = 0; cb < m; ++cb) {
          EXPECT_EQ(kn::BlockedCodeAt(blocked.data(), m, i, cb),
                    item_major[i * m + cb]);
        }
      }
      // Tail lanes are code 0, a valid index into any table.
      const size_t padded = kn::NumBlocks(n) * kn::kBlockItems;
      for (size_t i = n; i < padded; ++i) {
        for (size_t cb = 0; cb < m; ++cb) {
          EXPECT_EQ(kn::BlockedCodeAt(blocked.data(), m, i, cb), 0u);
        }
      }
    }
  }
}

TEST(ScanKernelsTest, KernelNamesResolveAndUnknownIsOff) {
  EXPECT_TRUE(kn::ScanKernelSupported("scalar"));
  for (const size_t kp : {16u, 64u, 256u}) {
    EXPECT_NE(kn::ScanKernelByName("scalar", kp).fn, nullptr);
  }
  EXPECT_EQ(kn::ScanKernelByName("not-a-kernel", 16).fn, nullptr);
  EXPECT_EQ(kn::SelectScanKernel(0).fn, nullptr);  // K > 256: no fast path
  for (const std::string& name : kn::AvailableScanKernels()) {
    EXPECT_TRUE(kn::ScanKernelSupported(name)) << name;
    EXPECT_NE(kn::ScanKernelByName(name, 16).fn, nullptr) << name;
  }
  // The startup selection names a kernel from the available set.
  const kn::ScanKernel picked = kn::SelectScanKernel(16);
  if (picked.fn != nullptr) {
    bool found = false;
    for (const std::string& name : kn::AvailableScanKernels()) {
      found = found || name == picked.name;
    }
    EXPECT_TRUE(found) << picked.name;
  }
}

// Every compiled-in kernel family must produce bit-identical u16 sums to
// the scalar reference — integer arithmetic has one answer — across random
// table contents, all padded widths, odd item tails, and m up to the u16
// overflow boundary.
TEST(ScanKernelsTest, SimdKernelsMatchScalarBitExactly) {
  Rng rng(12);
  const std::vector<std::string> families = kn::AvailableScanKernels();
  for (const size_t k : {5u, 16u, 40u, 64u, 100u, 256u}) {
    const size_t kp = kn::PadCodewords(k);
    ASSERT_NE(kp, 0u);
    for (const size_t n : {1u, 17u, 32u, 33u, 257u}) {
      for (const size_t m : {1u, 4u, 7u}) {
        std::vector<uint8_t> item_major(n * m);
        for (auto& c : item_major) {
          c = static_cast<uint8_t>(rng.NextIndex(k));
        }
        std::vector<uint8_t> blocked;
        kn::BuildBlockedCodes(item_major.data(), n, m, &blocked);
        std::vector<uint8_t> table(m * kp);
        for (auto& t : table) t = static_cast<uint8_t>(rng.NextIndex(256));

        const size_t lanes = kn::NumBlocks(n) * kn::kBlockItems;
        std::vector<uint16_t> want(lanes, 0xABCD);
        const kn::ScanKernel scalar = kn::ScanKernelByName("scalar", kp);
        ASSERT_NE(scalar.fn, nullptr);
        scalar.fn(blocked.data(), kn::NumBlocks(n), m, kp, table.data(),
                  want.data());

        // Cross-check the scalar kernel against a plain loop once.
        for (size_t i = 0; i < n; ++i) {
          uint32_t acc = 0;
          for (size_t cb = 0; cb < m; ++cb) {
            acc += table[cb * kp + item_major[i * m + cb]];
          }
          ASSERT_EQ(want[i], acc) << "scalar kernel i=" << i;
        }

        for (const std::string& name : families) {
          const kn::ScanKernel kernel = kn::ScanKernelByName(name, kp);
          if (kernel.fn == nullptr) continue;  // no impl at this width
          std::vector<uint16_t> got(lanes, 0x1234);
          kernel.fn(blocked.data(), kn::NumBlocks(n), m, kp, table.data(),
                    got.data());
          for (size_t i = 0; i < lanes; ++i) {
            ASSERT_EQ(got[i], want[i])
                << name << " k=" << k << " n=" << n << " m=" << m
                << " lane=" << i;
          }
        }
      }
    }
  }
}

TEST(ScanKernelsTest, QuantizedLutHonoursErrorBound) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t m = 1 + rng.NextIndex(8);
    const size_t k = 2 + rng.NextIndex(255);
    std::vector<float> lut(m * k);
    for (auto& v : lut) {
      v = static_cast<float>(rng.NextGaussian()) * 3.0f;
    }
    const kn::QuantizedLut q = kn::QuantizeLut(lut.data(), m, k);
    ASSERT_EQ(q.k_padded, kn::PadCodewords(k));
    ASSERT_GE(q.scale, 0.0f);

    // Random code vectors: the reconstructed dot must sit within half the
    // score bound of the float dot (score error is twice the dot error).
    for (int probe = 0; probe < 50; ++probe) {
      uint32_t sum = 0;
      float exact = 0.0f;
      for (size_t cb = 0; cb < m; ++cb) {
        const size_t code = rng.NextIndex(k);
        sum += q.table[cb * q.k_padded + code];
        exact += lut[cb * k + code];
      }
      const float recon = static_cast<float>(sum) * q.scale + q.bias_sum;
      EXPECT_LE(2.0f * std::abs(recon - exact), q.ScoreErrorBound() + 1e-5f);
    }
  }
  // A constant LUT quantizes to scale 0 and reconstructs exactly.
  std::vector<float> flat(3 * 4, 1.5f);
  const kn::QuantizedLut q = kn::QuantizeLut(flat.data(), 3, 4);
  EXPECT_EQ(q.scale, 0.0f);
  EXPECT_FLOAT_EQ(q.bias_sum, 4.5f);
}

// Reference top-k: exact scores sorted by (score, id) — what Search must
// return regardless of which kernel path it takes.
std::vector<SearchHit> ReferenceTopK(const AdcIndex& idx, const float* query,
                                     size_t top_k) {
  std::vector<float> scores;
  idx.ComputeScores(query, &scores);
  std::vector<uint32_t> ids(scores.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);
  std::sort(ids.begin(), ids.end(), [&](uint32_t a, uint32_t b) {
    return scores[a] < scores[b] || (scores[a] == scores[b] && a < b);
  });
  const size_t keep = std::min(top_k, ids.size());
  std::vector<SearchHit> out(keep);
  for (size_t i = 0; i < keep; ++i) out[i] = {ids[i], scores[ids[i]]};
  return out;
}

TEST(ScanKernelsTest, FastScanSearchMatchesExactTopK) {
  Rng rng(14);
  for (const size_t k : {16u, 64u, 200u}) {
    const size_t n = 203, m = 4, d = 6;  // odd n: tail block in play
    std::vector<Matrix> codebooks;
    for (size_t cb = 0; cb < m; ++cb) {
      codebooks.push_back(Matrix::RandomGaussian(k, d, rng));
    }
    std::vector<std::vector<uint32_t>> codes(n, std::vector<uint32_t>(m));
    for (auto& item : codes) {
      for (auto& c : item) c = static_cast<uint32_t>(rng.NextIndex(k));
    }
    auto built = AdcIndex::Build(codebooks, codes);
    ASSERT_TRUE(built.ok());
    const AdcIndex& idx = built.value();

    for (const size_t top_k : std::vector<size_t>{1, 10, n, n + 5}) {
      for (int t = 0; t < 3; ++t) {
        Matrix q = Matrix::RandomGaussian(1, d, rng);
        const auto want = ReferenceTopK(idx, q.data(), top_k);
        const auto got = idx.Search(q.data(), top_k);
        ASSERT_EQ(got.size(), want.size()) << "k=" << k;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].id, want[i].id) << "k=" << k << " i=" << i;
          EXPECT_EQ(got[i].distance, want[i].distance)
              << "k=" << k << " i=" << i;  // bit-identical, not NEAR
        }
      }
    }
  }
}

TEST(ScanKernelsTest, WideCodebookFallsBackToExactPath) {
  // K > 256 has no byte-code fast path: the kernel must report "off" and
  // Search must still return the exact, deterministically ordered top-k.
  Rng rng(15);
  const size_t n = 80, m = 2, k = 300, d = 4;
  std::vector<Matrix> codebooks;
  for (size_t cb = 0; cb < m; ++cb) {
    codebooks.push_back(Matrix::RandomGaussian(k, d, rng));
  }
  std::vector<std::vector<uint32_t>> codes(n, std::vector<uint32_t>(m));
  for (auto& item : codes) {
    for (auto& c : item) c = static_cast<uint32_t>(rng.NextIndex(k));
  }
  auto built = AdcIndex::Build(codebooks, codes);
  ASSERT_TRUE(built.ok());
  EXPECT_STREQ(built.value().scan_kernel_name(), "off");

  Matrix q = Matrix::RandomGaussian(1, d, rng);
  const auto want = ReferenceTopK(built.value(), q.data(), 12);
  const auto got = built.value().Search(q.data(), 12);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].distance, want[i].distance);
  }
}

TEST(ScanKernelsTest, ControlAwareFastScanMatchesUncontrolled) {
  Rng rng(16);
  const size_t n = 150, m = 3, k = 16, d = 5;
  std::vector<Matrix> codebooks;
  for (size_t cb = 0; cb < m; ++cb) {
    codebooks.push_back(Matrix::RandomGaussian(k, d, rng));
  }
  std::vector<std::vector<uint32_t>> codes(n, std::vector<uint32_t>(m));
  for (auto& item : codes) {
    for (auto& c : item) c = static_cast<uint32_t>(rng.NextIndex(k));
  }
  auto built = AdcIndex::Build(codebooks, codes);
  ASSERT_TRUE(built.ok());

  ScanControl control;
  control.check_every_items = 16;
  ScanStats stats;
  control.stats = &stats;
  Matrix q = Matrix::RandomGaussian(1, d, rng);
  auto controlled = built.value().Search(q.data(), 9, control);
  ASSERT_TRUE(controlled.ok());
  const auto plain = built.value().Search(q.data(), 9);
  ASSERT_EQ(controlled.value().size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(controlled.value()[i].id, plain[i].id);
    EXPECT_EQ(controlled.value()[i].distance, plain[i].distance);
  }
  // Chunk accounting stays item-granular even on the kernel path.
  EXPECT_EQ(stats.items, n);
  EXPECT_GE(stats.chunks, n / control.check_every_items);
}

// A random index over n items. With `distinct` > 0 the items share only
// that many code vectors, so their scores tie in groups under any query.
AdcIndex RandomAdc(size_t n, size_t m, size_t k, size_t d, size_t distinct,
                   Rng& rng) {
  std::vector<Matrix> codebooks;
  for (size_t cb = 0; cb < m; ++cb) {
    codebooks.push_back(Matrix::RandomGaussian(k, d, rng));
  }
  std::vector<std::vector<uint32_t>> pool(distinct == 0 ? n : distinct,
                                          std::vector<uint32_t>(m));
  for (auto& item : pool) {
    for (auto& c : item) c = static_cast<uint32_t>(rng.NextIndex(k));
  }
  std::vector<std::vector<uint32_t>> codes(n);
  for (size_t i = 0; i < n; ++i) {
    codes[i] = distinct == 0 ? pool[i] : pool[rng.NextIndex(distinct)];
  }
  auto built = AdcIndex::Build(codebooks, codes);
  EXPECT_TRUE(built.ok());
  return std::move(built).value();
}

// True when Search takes the kernel path (LIGHTLT_SCAN_KERNEL=off or a
// CPU without the kernel leaves only the exact scalar path).
bool FastScanOn(const AdcIndex& idx) {
  return std::string(idx.scan_kernel_name()) != "off";
}

// Bit-identity of `got` with the exact scalar top-k: same ids in the same
// order, same float distances (not NEAR).
void ExpectExactTopK(const AdcIndex& idx, const float* query, size_t top_k,
                     const std::vector<SearchHit>& got) {
  const auto want = ReferenceTopK(idx, query, top_k);
  ASSERT_EQ(got.size(), want.size()) << "top_k=" << top_k;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "top_k=" << top_k << " i=" << i;
    EXPECT_EQ(got[i].distance, want[i].distance)
        << "top_k=" << top_k << " i=" << i;
  }
}

TEST(ScanKernelsTest, HeapGateMatchesExactTopKOnLargeCorpus) {
  // n >> top_k: once the heap fills, whole blocks fail the bound gate and
  // are never rescored — the result must still be the exact top-k.
  Rng rng(17);
  const size_t n = 5003, m = 4, d = 8;
  for (const size_t k : {16u, 64u}) {
    const AdcIndex idx = RandomAdc(n, m, k, d, 0, rng);
    for (const size_t top_k : {1u, 10u, 100u}) {
      Matrix q = Matrix::RandomGaussian(1, d, rng);
      ScanControl control;
      ScanStats stats;
      control.stats = &stats;
      auto got = idx.Search(q.data(), top_k, control);
      ASSERT_TRUE(got.ok());
      ExpectExactTopK(idx, q.data(), top_k, got.value());
      ExpectExactTopK(idx, q.data(), top_k, idx.Search(q.data(), top_k));
      EXPECT_EQ(stats.items, n);
      if (FastScanOn(idx)) {
        EXPECT_GE(stats.shortlist, top_k);
        EXPECT_LT(stats.shortlist, n / 2) << "the gate pruned too little";
        EXPECT_EQ(stats.codes_decoded, stats.shortlist * m);
      }
    }
  }
}

TEST(ScanKernelsTest, HeapGateKeepsItemsWithinTheErrorBound) {
  // One far-out codeword per codebook that no item uses stretches every
  // LUT row, so the u8 step (and the bound B) dwarfs the gaps between the
  // scores items actually have: the gate is exact only with its B slack.
  Rng rng(24);
  const size_t n = 2000, m = 4, k = 16, d = 4;
  std::vector<Matrix> codebooks;
  for (size_t cb = 0; cb < m; ++cb) {
    Matrix book = Matrix::RandomGaussian(k, d, rng);
    for (size_t j = 0; j < d; ++j) book.row(k - 1)[j] *= 200.0f;
    codebooks.push_back(std::move(book));
  }
  std::vector<std::vector<uint32_t>> codes(n, std::vector<uint32_t>(m));
  for (auto& item : codes) {
    for (auto& c : item) c = static_cast<uint32_t>(rng.NextIndex(k - 1));
  }
  auto built = AdcIndex::Build(codebooks, codes);
  ASSERT_TRUE(built.ok());
  for (const size_t top_k : {1u, 10u, 50u}) {
    for (int t = 0; t < 5; ++t) {
      Matrix q = Matrix::RandomGaussian(1, d, rng);
      ExpectExactTopK(built.value(), q.data(), top_k,
                      built.value().Search(q.data(), top_k));
    }
  }
}

TEST(ScanKernelsTest, HeapGateMatchesExactTopKOnTinyCorpus) {
  // Fewer items than one kernel block: a single zero-padded tail block.
  Rng rng(18);
  for (const size_t n : {1u, 7u, 31u}) {
    const AdcIndex idx = RandomAdc(n, 3, 16, 5, 0, rng);
    for (const size_t top_k : std::vector<size_t>{0, 1, n, n + 5}) {
      Matrix q = Matrix::RandomGaussian(1, 5, rng);
      ExpectExactTopK(idx, q.data(), top_k, idx.Search(q.data(), top_k));
    }
  }
}

TEST(ScanKernelsTest, HeapGateBreaksTiesAtTheBoundaryById) {
  // 40 code vectors shared by 1000 items: every score ties with ~25
  // others, so the k-th place sits inside a tie group and only the id
  // tie-break decides which members make the cut.
  Rng rng(19);
  const size_t n = 1000;
  const AdcIndex idx = RandomAdc(n, 4, 64, 6, 40, rng);
  for (const size_t top_k : std::vector<size_t>{0, 1, 10, 37, n, n + 5}) {
    for (int t = 0; t < 3; ++t) {
      Matrix q = Matrix::RandomGaussian(1, 6, rng);
      ExpectExactTopK(idx, q.data(), top_k, idx.Search(q.data(), top_k));
    }
  }
}

TEST(ScanKernelsTest, HeapGateHandlesZeroQuery) {
  // A zero query makes every LUT entry 0: the quantized table is constant,
  // scale is 0 and the approximate scores are the norms themselves.
  Rng rng(20);
  const size_t n = 300, m = 4, k = 16, d = 5;
  const AdcIndex idx = RandomAdc(n, m, k, d, 0, rng);
  const std::vector<float> zero(d, 0.0f);
  std::vector<float> lut(m * k, 0.0f);
  ASSERT_EQ(kn::QuantizeLut(lut.data(), m, k).scale, 0.0f);
  for (const size_t top_k : std::vector<size_t>{0, 1, 10, n, n + 5}) {
    ExpectExactTopK(idx, zero.data(), top_k, idx.Search(zero.data(), top_k));
  }
}

TEST(ScanKernelsTest, HeapGateWithSubBlockChunksKeepsStats) {
  // check_every_items below the 32-item kernel block: chunks poll and
  // count per item range while the kernel and rescore run per block.
  Rng rng(21);
  const size_t n = 203, m = 4;
  const AdcIndex idx = RandomAdc(n, m, 64, 6, 0, rng);
  for (const size_t check_every : {1u, 5u, 16u, 31u}) {
    for (const size_t top_k : std::vector<size_t>{1, 10, n}) {
      Matrix q = Matrix::RandomGaussian(1, 6, rng);
      ScanControl control;
      control.check_every_items = check_every;
      ScanStats stats;
      control.stats = &stats;
      auto got = idx.Search(q.data(), top_k, control);
      ASSERT_TRUE(got.ok());
      ExpectExactTopK(idx, q.data(), top_k, got.value());
      EXPECT_EQ(stats.items, n);
      EXPECT_EQ(stats.chunks, (n + check_every - 1) / check_every);
      if (FastScanOn(idx)) {
        EXPECT_EQ(stats.lut_builds, 2u);
        EXPECT_GE(stats.shortlist, top_k);
        EXPECT_LE(stats.shortlist, n);
        EXPECT_EQ(stats.codes_decoded, stats.shortlist * m);
      }
    }
  }
}

TEST(ScanKernelsTest, StoppedControlEndsRescoreOfDegenerateLut) {
  // Identical codes make every score equal, so every item passes the gate
  // and the rescore loop is where the scan spends its time. A control that
  // is already stopped must end it after check_every_items rescores, in
  // the first chunk — before any between-chunk check (which would count
  // an overshoot) gets a chance.
  Rng rng(22);
  const size_t n = 200, m = 3, d = 4;
  AdcIndex idx = RandomAdc(n, m, 16, d, 1, rng);
  if (!FastScanOn(idx)) GTEST_SKIP() << "fast-scan kernel disabled";
  obs::MetricsRegistry registry;
  idx.Instrument(&registry, "adc_");
  Matrix q = Matrix::RandomGaussian(1, d, rng);

  CancellationSource cancel;
  cancel.RequestCancellation();
  ScanControl cancelled;
  cancelled.cancel = cancel.token();
  ScanControl expired;
  expired.deadline = Deadline::After(0.0);
  const std::pair<ScanControl*, StatusCode> cases[] = {
      {&cancelled, StatusCode::kCancelled},
      {&expired, StatusCode::kDeadlineExceeded}};
  for (const auto& [control, code] : cases) {
    control->check_every_items = 8;
    ScanStats stats;
    control->stats = &stats;
    auto got = idx.Search(q.data(), 5, *control);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), code);
    EXPECT_EQ(stats.shortlist, control->check_every_items);
    EXPECT_EQ(stats.chunks, 0u);
  }
  EXPECT_EQ(registry.GetCounter("adc_scan_deadline_overshoot_total")->Value(),
            0u);
}

TEST(ScanKernelsTest, IvfHeapIsBoundedByCorpusNotTopK) {
  // top_k arrives off the wire as any u32: the heap must size to the
  // corpus, not reserve top_k slots, and probing every cell returns all.
  Rng rng(23);
  const size_t n = 50, m = 2, k = 16, d = 4;
  std::vector<Matrix> codebooks;
  for (size_t cb = 0; cb < m; ++cb) {
    codebooks.push_back(Matrix::RandomGaussian(k, d, rng));
  }
  std::vector<std::vector<uint32_t>> codes(n, std::vector<uint32_t>(m));
  for (auto& item : codes) {
    for (auto& c : item) c = static_cast<uint32_t>(rng.NextIndex(k));
  }
  IvfOptions opts;
  opts.num_cells = 4;
  opts.nprobe = 4;
  auto ivf = IvfAdcIndex::Build(Matrix::RandomGaussian(n, d, rng), codebooks,
                                codes, opts);
  ASSERT_TRUE(ivf.ok());
  Matrix q = Matrix::RandomGaussian(1, d, rng);
  auto hits = ivf.value().Search(q.data(), size_t{0xFFFFFFFF}, ScanControl{},
                                 0);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits.value().size(), n);
}

}  // namespace
}  // namespace lightlt::index
