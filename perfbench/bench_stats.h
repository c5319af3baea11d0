// Pure measurement logic of the repository benchmark: exact nearest-rank
// percentiles, the seeded open-loop arrival schedule and its per-request
// accounting, the latency-limit rate ladder, self-time subtraction and
// failure counting. Nothing here calls into the library, so every rule the
// reported numbers rest on is unit-tested on scripted inputs
// (bench_stats_test.cc).

#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/// A failed or refused request's latency: it misses every latency limit.
inline constexpr double kFailedLatency =
    std::numeric_limits<double>::infinity();

/// Exact nearest-rank percentile of `samples`: the sample at rank
/// ceil(pct/100 * n), clamped to [1, n]; 0 when empty. Never interpolates
/// and never reads histogram buckets.
double NearestRank(std::vector<double> samples, double pct);

/// A timing summary: median, p99 and how many samples lie beyond p99's
/// rank (the guide's rule: report the highest percentile that still has at
/// least ten samples beyond it).
struct LatencySummary {
  double p50 = 0.0;
  double p99 = 0.0;
  size_t samples = 0;
  size_t beyond_p99 = 0;
};
LatencySummary Summarize(const std::vector<double>& samples);

/// Host interference on a shared machine only ever slows a window down, so
/// numbers taken across windows use the best decile, not the median: a run
/// of which a tenth ran uncontended still reports what the code does.
inline constexpr double kBestLatencyPct = 10.0;
inline constexpr double kBestRatePct = 90.0;

/// Summarize over consecutive windows of `window` samples (the last window
/// absorbs the remainder): p50/p99 are the `best_pct` nearest-rank
/// percentiles of the windows' own p50/p99, `samples` the total and
/// `beyond_p99` the fewest any window left beyond its p99.
LatencySummary WindowedSummary(const std::vector<double>& samples,
                               size_t window,
                               double best_pct = kBestLatencyPct);

/// Events per second in consecutive `window_s` windows of [0, total_s),
/// from the events' times `at_s` (seconds since the phase start); the
/// `best_pct` percentile over the windows.
double WindowedRate(const std::vector<double>& at_s, double window_s,
                    double total_s, double best_pct = kBestRatePct);

/// Total time of a piece of work done several times over, timed in laps
/// (`repeats[r][i]` = lap i of repeat r, the same work in every repeat):
/// the sum over laps of each lap's fastest repeat, so a host stall in one
/// lap of one repeat leaves the total alone. Falls back to the median of
/// the repeats' totals when their lap counts differ; 0 when empty.
double BestLapTotal(const std::vector<std::vector<double>>& repeats);

/// Seeded permutation of [0, n). SplitMix64 is the benchmark's only random
/// source, so a seed gives the same inputs on every platform and library.
std::vector<size_t> SeededPermutation(size_t n, uint64_t seed);

/// Poisson arrival offsets (ns from the phase start) for `rate_per_s` over
/// `duration_s`, at least `min_requests` of them (the phase stretches so a
/// low rate still yields enough samples for its p99).
std::vector<int64_t> PoissonSchedule(double rate_per_s, double duration_s,
                                     size_t min_requests, uint64_t seed);

/// Timestamps of one open-loop request (ns on one clock). `claim` is when
/// the worker that served it became free to take it, `start` when the call
/// began (never before `due`), `end` when it returned.
struct TicketTimes {
  int64_t due = 0;
  int64_t claim = 0;
  int64_t start = 0;
  int64_t end = 0;
  bool ok = false;
};

/// The clock the open-loop dispatcher runs on; the steady clock in a run,
/// a scripted clock in tests.
class DispatchClock {
 public:
  virtual ~DispatchClock() = default;
  virtual int64_t NowNs() = 0;
  /// Returns at or after `t_ns`.
  virtual void WaitUntilNs(int64_t t_ns) = 0;
};

/// CLOCK_MONOTONIC (std::chrono::steady_clock); spins through the last
/// 100 us of a wait and sleeps through the rest, with the thread's timer
/// slack cut to 1 ns.
class SteadyDispatchClock : public DispatchClock {
 public:
  int64_t NowNs() override;
  void WaitUntilNs(int64_t t_ns) override;
};

/// One open-loop worker: waits for the next unclaimed ticket's due time,
/// claims it if no other worker did first, runs `call(ticket)` and records
/// its times in `out[ticket]` (pre-sized to due.size()). Run one per worker
/// thread over a shared `next`; a ticket claimed after its due time queued.
void RunOpenLoopWorker(const std::vector<int64_t>& due,
                       std::atomic<size_t>* next, DispatchClock* clock,
                       const std::function<bool(size_t)>& call,
                       std::vector<TicketTimes>* out);

/// Samples per latency window: the fewest that leave ten beyond p99.
inline constexpr size_t kLatencyWindow = 1000;

/// Accounting of one open-loop phase.
struct OpenLoopReport {
  /// end - due (failed = kFailedLatency) and start - due, windowed by
  /// kLatencyWindow.
  LatencySummary latency;
  LatencySummary queue_wait;
  double gen_late_p99 = 0.0;     ///< p99 of start - max(claim, due)
  double drain = 0.0;            ///< last end - last due
  double completed_per_s = 0.0;  ///< ok requests / (last end - first due)
  size_t failed = 0;
  /// p99 within the limit and the backlog did not grow: the queue left at
  /// the last arrival drained within one latency limit.
  bool meets_limit = false;
};
/// Seconds are the unit of every duration above (inputs are ns).
OpenLoopReport AccountOpenLoop(const std::vector<TicketTimes>& tickets,
                               double limit_s);

/// The fixed offered-rate ladder: rate(i) = base * step^i.
double LadderRate(size_t rung, double base, double step);

/// Highest ladder rung in [0, rungs) that `meets` accepts, assuming
/// acceptance is monotone: probes upward from `start` by doubling strides
/// until a rung fails, then bisects between the last pass and the first
/// fail. Returns `rungs` when no probed rung passes.
size_t LadderSearch(size_t rungs, size_t start,
                    const std::function<bool(size_t)>& meets);

/// Self time of one call: its duration minus the durations of the calls it
/// waits on, which run one after another.
double SelfTime(double total, const std::vector<double>& children);

/// One span the benchmark recorded around a call into a layer. A child
/// either ran inside its parent's interval or is the same layer call timed
/// separately on the same input (outside-in tracing); either way the parent
/// waited on it for its duration.
struct SpanRecord {
  const char* name = "";
  int32_t parent = -1;  ///< index into the span vector, -1 = root
  uint32_t request = 0; ///< spans of one request share this id
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-name rollup of a span log: call count, median duration and median
/// self time (duration minus the children it waits on, per SelfTime).
struct LayerRow {
  std::string name;
  size_t calls = 0;
  double median_ns = 0.0;
  double median_self_ns = 0.0;
};
/// Rows in order of first appearance.
std::vector<LayerRow> SelfTimeTable(const std::vector<SpanRecord>& spans);

/// Outcome counts of one run. Everything but `ok` counts against
/// failed_frac: errors, shed, expired, and output-check mismatches.
struct FailureCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;
  uint64_t expired = 0;
  uint64_t mismatches = 0;

  uint64_t Failures() const { return failed + shed + expired + mismatches; }
  double FailedFrac() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(Failures()) /
                                static_cast<double>(attempted);
  }
};

/// Median of a sample (nearest-rank p50); 0 when empty.
double Median(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_H_
