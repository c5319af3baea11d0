// Continuous profiling with per-thread phase stacks (DESIGN.md §16).
//
// Code annotates itself with RAII ProfilePhase tags ("query", "search",
// "adc_scan", ...). Each thread keeps a small fixed-depth stack of tag names;
// pushing/popping is two relaxed/release atomic stores — cheap enough for
// request-path and scan-phase granularity (never per vector). A Profiler
// samples every annotated thread from a dedicated thread (no signals): each
// tick it walks the live phase stacks and accumulates one observation per
// busy thread into collapsed-stack aggregates ("query;adc_scan" -> samples,
// wall-ns, cpu-ns). Wall time is attributed from the sampler's injectable
// clock; CPU time from the sampled thread's CLOCK_THREAD_CPUTIME_ID, so an
// off-CPU phase (lock waits, blocked I/O) shows wall without cpu.
//
// A ProfilePhase given a trace also opens a span of the same name, so one
// annotation names a request phase in both the profile and the span tree
// (the phase names and their intervals are listed in DESIGN.md §16).
//
// Determinism contract: Start() runs a real sampler thread on the steady
// clock, but tests drive SampleOnce() by hand with an injectable clock and
// get bit-identical collapsed stacks — there is no signal-based or
// timing-dependent sampling anywhere.
//
// On top of the cumulative aggregates sit windowed deltas (CutWindow into a
// bounded ring), a frozen baseline, and regression attribution: when an SLO
// burn alert fires, DiffProfiles(baseline, current window) names the phases
// whose share of samples grew the most — the "what changed" answer the
// alert itself cannot give.
//
// The same ProfileSnapshot is the wire payload of the profile admin frame
// (src/net/frame.h): per-shard snapshots merge exactly by summing entries
// with equal stacks, so a fleet view is as trustworthy as a local one.

#ifndef LIGHTLT_OBS_PROFILE_H_
#define LIGHTLT_OBS_PROFILE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"
#include "src/util/status.h"

namespace lightlt::obs {

/// Maximum phase-tag nesting per thread. Deeper pushes are dropped and
/// counted (never silently) — request paths are a handful of layers deep.
inline constexpr size_t kMaxProfileDepth = 24;

/// The calling thread's CPU time in nanoseconds (CLOCK_THREAD_CPUTIME_ID);
/// 0 if the platform cannot read it. Serving uses the delta across one
/// request as the cost vector's cpu-ns.
uint64_t ThreadCpuNowNanos();

/// RAII phase tag. `name` must have static storage duration (string
/// literals) — the sampler reads the pointer from another thread long after
/// the call site returned. Tags nest; a tag pushed past kMaxProfileDepth is
/// counted as truncated and pops nothing. When `trace` is non-null the
/// phase also opens a span named `name` under `parent` (null or empty: a
/// root span) that closes with the phase.
class ProfilePhase {
 public:
  explicit ProfilePhase(const char* name, Trace* trace = nullptr,
                        const Span* parent = nullptr);
  ~ProfilePhase();

  ProfilePhase(const ProfilePhase&) = delete;
  ProfilePhase& operator=(const ProfilePhase&) = delete;

  /// The phase's span; empty without a trace. Nested phases take its
  /// address as their `parent`.
  const Span& span() const { return span_; }

 private:
  void* state_ = nullptr;  ///< owning thread's stack; null when truncated
  Span span_;
};

/// One collapsed stack ("a;b;c") with its sampled totals.
struct ProfileEntry {
  std::string stack;
  uint64_t samples = 0;
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
};

/// Point-in-time (or windowed-delta) view of a profiler's aggregates.
/// Entries are sorted by stack, so equal inputs render byte-identically.
struct ProfileSnapshot {
  std::vector<ProfileEntry> entries;
  uint64_t samples_total = 0;
  /// ProfilePhase pushes dropped at kMaxProfileDepth since process start.
  uint64_t truncated_pushes = 0;

  /// Flamegraph-compatible collapsed-stack text: one `stack count` line
  /// per entry, sorted by stack (feed straight into flamegraph.pl).
  std::string CollapsedText() const;

  /// One JSON object per entry with samples/wall_ns/cpu_ns.
  std::string RenderJsonl() const;

  /// Exact merge: entries with equal stacks sum their samples/wall/cpu;
  /// new stacks are inserted. The fleet collector folds per-shard
  /// snapshots with this — conservation is exact by construction.
  void MergeFrom(const ProfileSnapshot& other);

  /// The samples observed between `earlier` and this snapshot of the same
  /// cumulative profile, saturating at 0 per stack (mirrors
  /// HistogramSnapshot::Delta).
  ProfileSnapshot Delta(const ProfileSnapshot& earlier) const;
};

/// Per-phase rollup of a snapshot: `self` counts samples where the phase
/// was the leaf; `total` counts samples where it appeared anywhere on the
/// stack (each stack contributes once per distinct phase).
struct PhaseSummary {
  std::string phase;
  uint64_t self_samples = 0;
  uint64_t total_samples = 0;
  uint64_t self_wall_ns = 0;
  uint64_t total_wall_ns = 0;
  uint64_t self_cpu_ns = 0;
  uint64_t total_cpu_ns = 0;
};

/// Rolls a snapshot up per phase, sorted by total_samples descending
/// (ties by name).
std::vector<PhaseSummary> SummarizePhases(const ProfileSnapshot& snapshot);

/// One attribution line: how a stack's share of samples moved between a
/// baseline window and the current one.
struct PhaseDelta {
  std::string stack;
  double baseline_fraction = 0.0;
  double current_fraction = 0.0;
  double delta = 0.0;  ///< current - baseline, in sample-share points
};

/// Diffs two (windowed) snapshots by normalized sample share and returns
/// the `top_n` stacks whose share grew the most (delta > 0, descending).
/// Empty when either window has no samples.
std::vector<PhaseDelta> DiffProfiles(const ProfileSnapshot& baseline,
                                     const ProfileSnapshot& current,
                                     size_t top_n = 5);

/// Samples every annotated thread into collapsed-stack aggregates.
class Profiler {
 public:
  struct Options {
    /// Sampler period. The default 10ms (100 Hz — the standard always-on
    /// cadence, cf. perf's 99 Hz) keeps the measured p95 overhead well
    /// under the 5% bench-gate budget even on a single-core host, where
    /// every sampler wakeup preempts the one serving thread.
    double sample_interval_seconds = 0.010;
    /// Nanosecond clock for wall attribution; defaults to the steady
    /// clock. Tests inject a manual clock and call SampleOnce() directly.
    std::function<uint64_t()> clock;
    /// Per-sampled-thread CPU reader override (argument: stable thread
    /// slot). Defaults to the thread's CLOCK_THREAD_CPUTIME_ID. Tests
    /// inject a deterministic reader.
    std::function<uint64_t(size_t)> cpu_now;
    /// Optional registry for `{metric_prefix}...` sampler instruments.
    MetricsRegistry* registry = nullptr;
    std::string metric_prefix = "profile_";
    /// Windowed deltas kept by CutWindow (oldest evicted when full).
    size_t window_ring_capacity = 16;
  };

  Profiler() : Profiler(Options{}) {}
  explicit Profiler(Options options);
  ~Profiler();  ///< stops the sampler thread if running

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Starts the dedicated sampler thread (steady-clock cadence).
  /// kFailedPrecondition when already running.
  Status Start();
  /// Stops and joins the sampler thread; idempotent.
  void Stop();
  bool running() const;

  /// One sampling pass: reads every live phase stack once, attributing
  /// wall time from the injectable clock and CPU time from per-thread
  /// CPU clocks. The sampler thread calls this on its cadence; tests call
  /// it directly for deterministic aggregates.
  void SampleOnce();

  /// Cumulative aggregates since construction.
  ProfileSnapshot Snapshot() const;
  std::string CollapsedText() const { return Snapshot().CollapsedText(); }
  std::string RenderJsonl() const { return Snapshot().RenderJsonl(); }

  /// Cuts the window since the previous cut (or construction), pushes it
  /// into the window ring, and returns it.
  ProfileSnapshot CutWindow();
  /// Oldest-to-newest copy of the window ring.
  std::vector<ProfileSnapshot> Windows() const;
  /// Freezes the most recently cut window as the regression baseline.
  /// False when no window has been cut yet.
  bool FreezeBaseline();
  bool has_baseline() const;

  /// Top phase-share growth of the live window (samples since the last
  /// cut) against the frozen baseline. Empty without a baseline.
  std::vector<PhaseDelta> AttributeRegression(size_t top_n = 5) const;

  uint64_t samples_total() const;

 private:
  void SamplerLoop();

  Options options_;

  mutable std::mutex mu_;  ///< aggregates, windows, baseline
  std::map<std::string, ProfileEntry> aggregate_;
  uint64_t samples_total_ = 0;
  uint64_t last_sample_ns_ = 0;
  ProfileSnapshot window_cursor_;
  std::vector<ProfileSnapshot> windows_;
  ProfileSnapshot baseline_;
  bool has_baseline_ = false;

  mutable std::mutex thread_mu_;  ///< sampler thread lifecycle
  std::condition_variable cv_;
  bool stop_ = true;
  std::thread sampler_;

  Counter* samples_counter_ = nullptr;
  Gauge* threads_busy_gauge_ = nullptr;
  Counter* truncated_counter_ = nullptr;
};

/// Checks `tracker` and, on a quiet→firing transition, logs the top phase
/// deltas of `profiler`'s live window against its frozen baseline — the
/// regression-attribution hook (DESIGN.md §16). Returns the alert state.
/// `profiler` and `logger` may be null (plain Check() behaviour).
SloTracker::AlertState CheckSloWithAttribution(SloTracker* tracker,
                                               const Profiler* profiler,
                                               Logger* logger,
                                               size_t top_n = 3);

}  // namespace lightlt::obs

#endif  // LIGHTLT_OBS_PROFILE_H_
