#include "perfbench/bench_stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

namespace perfbench {
namespace {

TEST(NearestRankTest, PicksTheSampleAtTheCeilingRank) {
  // Ranks 1..100 hold values 1..100: p50 is rank 50, p99 rank 99.
  std::vector<double> v(100);
  for (int i = 0; i < 100; ++i) v[i] = 100 - i;  // unsorted input
  EXPECT_EQ(NearestRank(v, 50.0), 50.0);
  EXPECT_EQ(NearestRank(v, 99.0), 99.0);
  EXPECT_EQ(NearestRank(v, 100.0), 100.0);
  EXPECT_EQ(NearestRank(v, 0.0), 1.0);  // rank clamps to 1
  // Never interpolates: p50 of {1, 2} is 1, not 1.5.
  EXPECT_EQ(NearestRank({2.0, 1.0}, 50.0), 1.0);
  EXPECT_EQ(NearestRank({}, 50.0), 0.0);
}

TEST(NearestRankTest, SummaryCountsSamplesBeyondP99) {
  std::vector<double> v(1000);
  for (int i = 0; i < 1000; ++i) v[i] = i;
  const LatencySummary s = Summarize(v);
  EXPECT_EQ(s.samples, 1000u);
  EXPECT_EQ(s.p50, 499.0);
  EXPECT_EQ(s.p99, 989.0);
  EXPECT_EQ(s.beyond_p99, 10u);
}

TEST(NearestRankTest, FailedRequestsMissTheLimit) {
  std::vector<double> v(100, 1e-4);
  v[0] = kFailedLatency;
  v[1] = kFailedLatency;
  EXPECT_EQ(Summarize(v).p99, kFailedLatency);
}

TEST(NearestRankTest, WindowsConfineStallsToTheirWindows) {
  // Four windows of 1000; two hold a 50-sample stall.
  std::vector<double> v(4000, 1.0);
  for (int i = 1000; i < 1050; ++i) v[i] = 100.0;
  for (int i = 3000; i < 1050 + 2000; ++i) v[i] = 50.0;
  EXPECT_EQ(Summarize(v).p99, 100.0);
  const LatencySummary w = WindowedSummary(v, 1000);
  EXPECT_EQ(w.p99, 1.0);  // best decile of {1, 100, 1, 50}
  EXPECT_EQ(w.p50, 1.0);
  EXPECT_EQ(w.samples, 4000u);
  EXPECT_EQ(w.beyond_p99, 10u);
  // Every window stalled: the best decile sees the stall.
  for (int i = 0; i < 50; ++i) v[i] = 7.0;
  for (int i = 2000; i < 2050; ++i) v[i] = 7.0;
  EXPECT_EQ(WindowedSummary(v, 1000).p99, 7.0);
  // The last window absorbs the remainder (windows of 1000 and 1500 leave
  // 10 and 15 beyond); short samples use one window.
  EXPECT_EQ(WindowedSummary(std::vector<double>(2500, 2.0), 1000).beyond_p99,
            10u);
  EXPECT_EQ(WindowedSummary(v, 5000).p99, 100.0);
  // A chosen percentile of the windows: the median of {1, 100, 7, 50}.
  EXPECT_EQ(WindowedSummary(v, 1000, 50.0).p99, 7.0);
}

TEST(NearestRankTest, WindowedRateTakesTheBestDecile) {
  // Four 1 s windows with 10, 20, 30 and 40 events.
  std::vector<double> at;
  for (int w = 0; w < 4; ++w) {
    for (int e = 0; e < 10 * (w + 1); ++e) at.push_back(w + 0.01 * e);
  }
  EXPECT_DOUBLE_EQ(WindowedRate(at, 1.0, 4.0), 40.0);
  EXPECT_DOUBLE_EQ(WindowedRate(at, 2.0, 4.0), 35.0);  // windows of 30, 70
  EXPECT_DOUBLE_EQ(WindowedRate({}, 1.0, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(WindowedRate(at, 1.0, 4.0, 50.0), 20.0);
}

TEST(ScheduleTest, SeededAndLongEnough) {
  const auto a = PoissonSchedule(1000.0, 1.0, 0, 7);
  const auto b = PoissonSchedule(1000.0, 1.0, 0, 7);
  const auto c = PoissonSchedule(1000.0, 1.0, 0, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GT(a.size(), 850u);  // ~1000 expected
  EXPECT_LT(a.size(), 1150u);
  // A short phase stretches to the minimum request count.
  EXPECT_EQ(PoissonSchedule(1000.0, 0.001, 500, 7).size(), 500u);
  const auto perm = SeededPermutation(50, 3);
  std::vector<size_t> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < 50; ++i) EXPECT_EQ(sorted[i], i);
  EXPECT_EQ(perm, SeededPermutation(50, 3));
}

/// Scripted clock: waiting jumps to the deadline plus a fixed oversleep;
/// each call advances time by its service time.
class FakeClock : public DispatchClock {
 public:
  int64_t now = 0;
  int64_t oversleep = 0;
  int64_t NowNs() override { return now; }
  void WaitUntilNs(int64_t t) override { now = std::max(now, t + oversleep); }
};

TEST(OpenLoopTest, LatenessAndQueueWaitUnderAFakeClock) {
  FakeClock clock;
  clock.oversleep = 5;
  // One worker, service time 100: tickets due at 0, 50, 400.
  const std::vector<int64_t> due = {0, 50, 400};
  std::vector<TicketTimes> times(due.size());
  std::atomic<size_t> next{0};
  RunOpenLoopWorker(due, &next, &clock,
                    [&](size_t) {
                      clock.now += 100;
                      return true;
                    },
                    &times);
  // Ticket 0: claimed at 0, due 0 -> no wait, starts at 0, ends 100.
  EXPECT_EQ(times[0].start, 0);
  EXPECT_EQ(times[0].end, 100);
  // Ticket 1: claimed at 100 (worker was busy), 50 late, no sleep.
  EXPECT_EQ(times[1].claim, 100);
  EXPECT_EQ(times[1].start, 100);
  // Ticket 2: claimed early at 200, sleeps to 400 and oversleeps by 5.
  EXPECT_EQ(times[2].claim, 200);
  EXPECT_EQ(times[2].start, 405);
  EXPECT_EQ(times[2].end, 505);

  const OpenLoopReport r = AccountOpenLoop(times, /*limit_s=*/1.0);
  // Queue waits 0, 50, 5 ns; generator lateness 0, 0, 5 ns (only the
  // oversleep is the generator's fault, the 50 ns was queueing).
  EXPECT_DOUBLE_EQ(r.queue_wait.p99, 50e-9);
  EXPECT_DOUBLE_EQ(r.queue_wait.p50, 5e-9);
  EXPECT_DOUBLE_EQ(r.gen_late_p99, 5e-9);
  // Latency from due time: 100, 150, 105 ns.
  EXPECT_DOUBLE_EQ(r.latency.p50, 105e-9);
  EXPECT_DOUBLE_EQ(r.latency.p99, 150e-9);
  EXPECT_DOUBLE_EQ(r.drain, 105e-9);
  EXPECT_TRUE(r.meets_limit);
  EXPECT_EQ(r.failed, 0u);
}

TEST(OpenLoopTest, GrowingBacklogOrFailureMissesTheLimit) {
  // Service 100 ns, arrivals every 50 ns: the backlog grows without bound.
  FakeClock clock;
  std::vector<int64_t> due;
  for (int i = 0; i < 100; ++i) due.push_back(50 * i);
  std::vector<TicketTimes> times(due.size());
  std::atomic<size_t> next{0};
  RunOpenLoopWorker(due, &next, &clock,
                    [&](size_t i) {
                      clock.now += 100;
                      return i != 3 && i != 4;  // two failures
                    },
                    &times);
  OpenLoopReport r = AccountOpenLoop(times, /*limit_s=*/1e-6);
  EXPECT_EQ(r.failed, 2u);
  EXPECT_DOUBLE_EQ(r.drain, (100 * 100 - 50 * 99) * 1e-9);
  EXPECT_FALSE(r.meets_limit);  // drain 5050 ns > 1000 ns
  // Same trace with a generous limit: two failures out of 100 put p99 at
  // the failed latency; one failure leaves p99 on a served request.
  r = AccountOpenLoop(times, /*limit_s=*/1.0);
  EXPECT_EQ(r.latency.p99, kFailedLatency);
  EXPECT_FALSE(r.meets_limit);
  times[3].ok = true;
  EXPECT_TRUE(AccountOpenLoop(times, 1.0).meets_limit);
}

TEST(LadderTest, FindsTheHighestPassingRung) {
  for (size_t knee : {0u, 1u, 7u, 46u, 47u, 48u, 100u, 198u, 199u}) {
    size_t probes = 0;
    const size_t got = LadderSearch(200, 47, [&](size_t rung) {
      ++probes;
      return rung <= knee;
    });
    EXPECT_EQ(got, knee) << "knee " << knee;
    EXPECT_LE(probes, 20u);
  }
  EXPECT_EQ(LadderSearch(200, 47, [](size_t) { return false; }), 200u);
  EXPECT_DOUBLE_EQ(LadderRate(0, 1000.0, 1.03), 1000.0);
  EXPECT_NEAR(LadderRate(2, 1000.0, 1.03), 1060.9, 1e-9);
}

TEST(SelfTimeTest, SubtractsTheCallsWaitedOn) {
  EXPECT_DOUBLE_EQ(SelfTime(100.0, {30.0, 20.0}), 50.0);
  EXPECT_DOUBLE_EQ(SelfTime(100.0, {}), 100.0);

  // Two requests: query(100) -> embed(10) + replica(60) -> ivf(50).
  std::vector<SpanRecord> spans;
  for (uint32_t r = 0; r < 2; ++r) {
    const int32_t base = static_cast<int32_t>(spans.size());
    const int64_t extra = r;  // request 1 spends 1 ns more in itself
    spans.push_back({"query", -1, r, 0, 100 + extra});
    spans.push_back({"embed", base, r, 0, 10});
    spans.push_back({"replica", base, r, 0, 60});
    spans.push_back({"ivf", base + 2, r, 0, 50});
  }
  const auto rows = SelfTimeTable(spans);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].name, "query");
  EXPECT_EQ(rows[0].calls, 2u);
  EXPECT_DOUBLE_EQ(rows[0].median_ns, 100.0);
  EXPECT_DOUBLE_EQ(rows[0].median_self_ns, 30.0);  // 100 - 10 - 60
  EXPECT_DOUBLE_EQ(rows[2].median_self_ns, 10.0);  // 60 - 50
  EXPECT_DOUBLE_EQ(rows[3].median_self_ns, 50.0);  // leaf
}

TEST(SetupTimeTest, SumsEachLapsFastestRepeat) {
  EXPECT_DOUBLE_EQ(BestLapTotal({}), 0.0);
  EXPECT_DOUBLE_EQ(BestLapTotal({{1.0, 2.0, 3.0}}), 6.0);
  // A stall in lap 1 of the first repeat and in lap 2 of the second.
  EXPECT_DOUBLE_EQ(BestLapTotal({{1.0, 9.0, 3.0}, {1.5, 2.0, 8.0}}), 6.0);
  // Lap counts that differ: the median repeat's total.
  EXPECT_DOUBLE_EQ(BestLapTotal({{1.0, 1.0}, {5.0}, {1.0, 2.0, 4.0}}), 5.0);
}

TEST(FailureCountTest, EveryNonServedOutcomeCounts) {
  FailureCount f;
  EXPECT_DOUBLE_EQ(f.FailedFrac(), 1.0);  // nothing attempted is not a pass
  f.attempted = 200;
  EXPECT_DOUBLE_EQ(f.FailedFrac(), 0.0);
  f.failed = 1;
  f.shed = 2;
  f.expired = 3;
  f.mismatches = 4;
  EXPECT_EQ(f.Failures(), 10u);
  EXPECT_DOUBLE_EQ(f.FailedFrac(), 0.05);
}

}  // namespace
}  // namespace perfbench
