// SLO tracking with multi-window burn-rate alerts (DESIGN.md §11).
//
// An SloTracker watches one objective — e.g. "99% of queries under the
// latency bound" or "shadow recall@10 at least 0.9" — as a stream of
// good/bad events. The burn rate over a window is the observed bad
// fraction divided by the error budget (1 - objective): burn 1.0 spends
// the budget exactly at the objective's rate, burn 14 exhausts a 30-day
// budget in ~2 days. An alert fires only when BOTH a short and a long
// window exceed the threshold (the SRE multi-window pattern): the long
// window proves the problem is sustained, the short window proves it is
// still happening, so alerts both resist blips and clear promptly.
//
// Events land in a ring of fixed-width time buckets tagged with their
// epoch, so stale buckets are lazily reset instead of requiring a sweeper
// thread. The clock is injectable; tests walk time by hand.

#ifndef LIGHTLT_OBS_SLO_H_
#define LIGHTLT_OBS_SLO_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/log.h"
#include "src/obs/metrics.h"

namespace lightlt::obs {

/// One multi-window alert rule: fire when the burn rate over both windows
/// is at/above `threshold`.
struct BurnRateWindow {
  double short_seconds = 60.0;
  double long_seconds = 600.0;
  double threshold = 2.0;
};

class SloTracker {
 public:
  struct Options {
    std::string name = "slo";  ///< label on gauges and log events
    /// Target good fraction; the error budget is 1 - objective.
    double objective = 0.99;
    /// Alert rules; any rule with both windows over threshold fires. The
    /// default is one rule with BurnRateWindow's defaults (60 s / 600 s at
    /// 2x burn).
    std::vector<BurnRateWindow> windows = std::vector<BurnRateWindow>(1);
    double bucket_seconds = 1.0;
    /// The ring covers this much history; must be >= every long window.
    double horizon_seconds = 3600.0;
    /// Seconds clock; defaults to the steady clock. Injectable for tests.
    std::function<double()> clock;
    Logger* logger = nullptr;              ///< fire/clear events (null = silent)
    MetricsRegistry* registry = nullptr;   ///< burn/firing gauges (optional)
    std::string metric_prefix = "slo_";
  };
  explicit SloTracker(Options options);

  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  /// Records one event against the objective.
  void Record(bool good);

  /// Bad fraction / burn rate over the trailing window (0 with no events).
  double BadFraction(double window_seconds) const;
  double BurnRate(double window_seconds) const;

  struct AlertState {
    bool firing = false;
    /// Per-rule burn rates, parallel to Options::windows.
    std::vector<double> short_burn;
    std::vector<double> long_burn;
  };
  /// Re-evaluates every rule, updates gauges, and logs transitions.
  AlertState Check();

  bool firing() const;
  /// Total quiet→firing transitions.
  uint64_t fire_count() const;

  const Options& options() const { return options_; }

 private:
  struct Bucket {
    int64_t epoch = -1;  ///< bucket index since t=0; -1 = never used
    uint64_t good = 0;
    uint64_t bad = 0;
  };

  int64_t BucketEpoch(double now) const;
  /// Sums events in the trailing `window_seconds` ending at `now`.
  void SumWindow(double now, double window_seconds, uint64_t* good,
                 uint64_t* bad) const;  // requires mu_

  Options options_;
  mutable std::mutex mu_;
  std::vector<Bucket> ring_;
  bool firing_ = false;
  uint64_t fire_count_ = 0;
};

}  // namespace lightlt::obs

#endif  // LIGHTLT_OBS_SLO_H_
