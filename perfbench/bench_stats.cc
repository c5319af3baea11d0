#include "perfbench/bench_stats.h"

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

namespace perfbench {

namespace {

// 0-based index of the nearest-rank `pct` percentile of n sorted samples.
size_t NearestRankIndex(size_t n, double pct) {
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n));
  const size_t r = static_cast<size_t>(std::max(1.0, rank));
  return std::min(r, n) - 1;
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// A uniform double in (0, 1].
double UnitInterval(uint64_t* state) {
  // 53 random mantissa bits, shifted off zero so log() stays finite.
  return (static_cast<double>(SplitMix64(state) >> 11) + 1.0) * 0x1.0p-53;
}

}  // namespace

double NearestRank(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  const size_t i = NearestRankIndex(samples.size(), pct);
  std::nth_element(samples.begin(), samples.begin() + i, samples.end());
  return samples[i];
}

double Median(std::vector<double> samples) {
  return NearestRank(std::move(samples), 50.0);
}

LatencySummary Summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.samples = samples.size();
  if (samples.empty()) return s;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  s.p50 = sorted[NearestRankIndex(sorted.size(), 50.0)];
  const size_t i99 = NearestRankIndex(sorted.size(), 99.0);
  s.p99 = sorted[i99];
  s.beyond_p99 = sorted.size() - 1 - i99;
  return s;
}

LatencySummary WindowedSummary(const std::vector<double>& samples,
                               size_t window, double best_pct) {
  const size_t windows = std::max<size_t>(1, samples.size() / window);
  if (windows == 1) return Summarize(samples);
  std::vector<double> p50, p99;
  size_t beyond = samples.size();
  for (size_t w = 0; w < windows; ++w) {
    const auto begin = samples.begin() + w * window;
    const auto end = w + 1 == windows ? samples.end() : begin + window;
    const LatencySummary s = Summarize(std::vector<double>(begin, end));
    p50.push_back(s.p50);
    p99.push_back(s.p99);
    beyond = std::min(beyond, s.beyond_p99);
  }
  LatencySummary s;
  s.p50 = NearestRank(p50, best_pct);
  s.p99 = NearestRank(p99, best_pct);
  s.samples = samples.size();
  s.beyond_p99 = beyond;
  return s;
}

double WindowedRate(const std::vector<double>& at_s, double window_s,
                    double total_s, double best_pct) {
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(total_s / window_s));
  std::vector<double> counts(windows, 0.0);
  for (double t : at_s) {
    const size_t w = static_cast<size_t>(std::max(0.0, t) / window_s);
    if (w < windows) counts[w] += 1.0;
  }
  return NearestRank(counts, best_pct) / window_s;
}

double BestLapTotal(const std::vector<std::vector<double>>& repeats) {
  if (repeats.empty()) return 0.0;
  const size_t laps = repeats.front().size();
  std::vector<double> totals;
  for (const auto& r : repeats) {
    totals.push_back(std::accumulate(r.begin(), r.end(), 0.0));
  }
  for (const auto& r : repeats) {
    if (r.size() != laps) return Median(std::move(totals));
  }
  double total = 0.0;
  for (size_t i = 0; i < laps; ++i) {
    double best = repeats.front()[i];
    for (const auto& r : repeats) best = std::min(best, r[i]);
    total += best;
  }
  return total;
}

std::vector<size_t> SeededPermutation(size_t n, uint64_t seed) {
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  uint64_t state = seed;
  for (size_t i = n; i > 1; --i) {
    const size_t j = SplitMix64(&state) % i;
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

std::vector<int64_t> PoissonSchedule(double rate_per_s, double duration_s,
                                     size_t min_requests, uint64_t seed) {
  std::vector<int64_t> due;
  uint64_t state = seed;
  const double horizon_ns = duration_s * 1e9;
  double t = 0.0;
  for (;;) {
    t += -std::log(UnitInterval(&state)) / rate_per_s * 1e9;
    if (t > horizon_ns && due.size() >= min_requests) break;
    due.push_back(static_cast<int64_t>(t));
  }
  return due;
}

int64_t SteadyDispatchClock::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SteadyDispatchClock::WaitUntilNs(int64_t t_ns) {
  // A sleeping vCPU takes tens of microseconds to wake, more while the
  // host is busy, which would count as generator lateness. So waits spin
  // their last kSpinNs, and longer waits first sleep to kSpinNs before the
  // deadline, with the timer slack (default 50 us) cut to 1 ns. Long spins
  // make it worse on a shared VM (spinning vCPUs get descheduled for
  // milliseconds).
  constexpr int64_t kSpinNs = 100'000;
  static thread_local const bool slack_cut =
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL) == 0;
  (void)slack_cut;
  if (t_ns - NowNs() > kSpinNs) {
    const int64_t wake = t_ns - kSpinNs;
    const timespec at{static_cast<time_t>(wake / 1'000'000'000),
                      static_cast<long>(wake % 1'000'000'000)};
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &at, nullptr) !=
           0) {
    }
  }
  while (NowNs() < t_ns) {
  }
}

void RunOpenLoopWorker(const std::vector<int64_t>& due,
                       std::atomic<size_t>* next, DispatchClock* clock,
                       const std::function<bool(size_t)>& call,
                       std::vector<TicketTimes>* out) {
  for (;;) {
    size_t i = next->load(std::memory_order_acquire);
    if (i >= due.size()) return;
    const int64_t free_at = clock->NowNs();
    if (free_at < due[i]) clock->WaitUntilNs(due[i]);
    // Take the ticket only once it is due: a worker that stalls while
    // waiting must not hold a ticket another free worker could serve.
    if (!next->compare_exchange_strong(i, i + 1, std::memory_order_acq_rel)) {
      continue;
    }
    TicketTimes& t = (*out)[i];
    t.due = due[i];
    t.claim = free_at;
    t.start = clock->NowNs();
    t.ok = call(i);
    t.end = clock->NowNs();
  }
}

OpenLoopReport AccountOpenLoop(const std::vector<TicketTimes>& tickets,
                               double limit_s) {
  OpenLoopReport r;
  if (tickets.empty()) return r;
  std::vector<double> latency, wait, late;
  latency.reserve(tickets.size());
  wait.reserve(tickets.size());
  late.reserve(tickets.size());
  int64_t last_due = tickets.front().due, first_due = tickets.front().due;
  int64_t last_end = tickets.front().end;
  size_t ok = 0;
  for (const TicketTimes& t : tickets) {
    latency.push_back(t.ok ? (t.end - t.due) * 1e-9 : kFailedLatency);
    wait.push_back((t.start - t.due) * 1e-9);
    late.push_back((t.start - std::max(t.claim, t.due)) * 1e-9);
    last_due = std::max(last_due, t.due);
    first_due = std::min(first_due, t.due);
    last_end = std::max(last_end, t.end);
    if (t.ok) ++ok;
  }
  r.failed = tickets.size() - ok;
  r.latency = WindowedSummary(latency, kLatencyWindow);
  r.queue_wait = WindowedSummary(wait, kLatencyWindow);
  r.gen_late_p99 = NearestRank(late, 99.0);
  r.drain = (last_end - last_due) * 1e-9;
  const double span = (last_end - first_due) * 1e-9;
  r.completed_per_s = span > 0.0 ? static_cast<double>(ok) / span : 0.0;
  r.meets_limit = r.latency.p99 <= limit_s && r.drain <= limit_s;
  return r;
}

double LadderRate(size_t rung, double base, double step) {
  return base * std::pow(step, static_cast<double>(rung));
}

size_t LadderSearch(size_t rungs, size_t start,
                    const std::function<bool(size_t)>& meets) {
  if (rungs == 0) return 0;
  start = std::min(start, rungs - 1);
  // [pass, fail): the highest known-good rung and the lowest known-bad one.
  size_t pass = rungs, fail = rungs;
  if (meets(start)) {
    pass = start;
    for (size_t stride = 1;; stride *= 2) {
      const size_t probe = std::min(pass + stride, rungs - 1);
      if (probe == pass) return pass;  // top of the ladder passes
      if (!meets(probe)) {
        fail = probe;
        break;
      }
      pass = probe;
    }
  } else {
    fail = start;
    for (size_t stride = 1;; stride *= 2) {
      if (fail == 0) return rungs;  // even the bottom rung fails
      const size_t probe = fail > stride ? fail - stride : 0;
      if (meets(probe)) {
        pass = probe;
        break;
      }
      fail = probe;
    }
  }
  while (fail - pass > 1) {
    const size_t mid = pass + (fail - pass) / 2;
    if (meets(mid)) {
      pass = mid;
    } else {
      fail = mid;
    }
  }
  return pass;
}

double SelfTime(double total, const std::vector<double>& children) {
  return total - std::accumulate(children.begin(), children.end(), 0.0);
}

std::vector<LayerRow> SelfTimeTable(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<double>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[s.parent].push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  std::vector<LayerRow> rows;
  std::vector<std::vector<double>> totals, selfs;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    size_t r = 0;
    while (r < rows.size() && rows[r].name != s.name) ++r;
    if (r == rows.size()) {
      rows.push_back(LayerRow{s.name});
      totals.emplace_back();
      selfs.emplace_back();
    }
    const double total = static_cast<double>(s.end_ns - s.start_ns);
    totals[r].push_back(total);
    selfs[r].push_back(SelfTime(total, children[i]));
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    rows[r].calls = totals[r].size();
    rows[r].median_ns = Median(std::move(totals[r]));
    rows[r].median_self_ns = Median(std::move(selfs[r]));
  }
  return rows;
}

}  // namespace perfbench
