#include "src/obs/profile.h"

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>

namespace lightlt::obs {

uint64_t ThreadCpuNowNanos() {
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

namespace {

uint64_t SteadyNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One thread's phase stack. The owner thread writes frames then
/// release-stores depth; the sampler acquire-loads depth then reads frames
/// — a concurrent pop/push can at worst mis-attribute one sample to a
/// sibling stack, which is inherent to sampling and never unsafe.
struct ThreadStack {
  std::atomic<uint32_t> depth{0};
  std::atomic<const char*> frames[kMaxProfileDepth] = {};
  std::atomic<uint64_t> truncated{0};
  std::atomic<bool> alive{true};
  clockid_t cpu_clock{};
  bool cpu_clock_ok = false;
  /// Stable slot passed to the injectable cpu reader (assigned once).
  size_t slot = 0;
  // Sampler-side CPU cursor (only the sampler touches these, under the
  // registry mutex).
  uint64_t last_cpu_ns = 0;
  bool cpu_seen = false;
};

/// Process-wide registry of phase stacks. Stacks are pooled, never freed:
/// a thread's exit retires its stack for reuse by the next new thread, so
/// the sampler can hold pointers without lifetime hazards. Leaked
/// intentionally (like Logger::Global) so thread_local destructors running
/// late in shutdown still find it.
class StackRegistry {
 public:
  static StackRegistry& Instance() {
    static StackRegistry* instance = new StackRegistry();
    return *instance;
  }

  ThreadStack* Acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      ThreadStack* s = free_.back();
      free_.pop_back();
      InitForThisThread(s);
      return s;
    }
    stacks_.push_back(std::make_unique<ThreadStack>());
    ThreadStack* s = stacks_.back().get();
    s->slot = stacks_.size() - 1;
    InitForThisThread(s);
    return s;
  }

  void Retire(ThreadStack* s) {
    std::lock_guard<std::mutex> lock(mu_);
    s->alive.store(false, std::memory_order_relaxed);
    s->depth.store(0, std::memory_order_release);
    free_.push_back(s);
  }

  /// Runs `fn(stack)` for every live stack under the registry lock — the
  /// sampler's iteration primitive.
  template <typename Fn>
  void ForEachLive(Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& s : stacks_) {
      if (s->alive.load(std::memory_order_relaxed)) fn(s.get());
    }
  }

  uint64_t TruncatedPushes() {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const auto& s : stacks_) {
      total += s->truncated.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static void InitForThisThread(ThreadStack* s) {
    s->alive.store(true, std::memory_order_relaxed);
    s->depth.store(0, std::memory_order_release);
    s->cpu_clock_ok =
        pthread_getcpuclockid(pthread_self(), &s->cpu_clock) == 0;
    s->cpu_seen = false;
    s->last_cpu_ns = 0;
  }

  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadStack>> stacks_;
  std::vector<ThreadStack*> free_;
};

/// Thread-local handle; retires the stack at thread exit.
struct StackHolder {
  ThreadStack* stack = nullptr;
  ~StackHolder() {
    if (stack != nullptr) StackRegistry::Instance().Retire(stack);
  }
};

ThreadStack* ThisThreadStack() {
  thread_local StackHolder holder;
  if (holder.stack == nullptr) {
    holder.stack = StackRegistry::Instance().Acquire();
  }
  return holder.stack;
}

uint64_t ReadThreadCpu(const ThreadStack& s) {
  if (!s.cpu_clock_ok) return 0;
  struct timespec ts;
  if (clock_gettime(s.cpu_clock, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace

ProfilePhase::ProfilePhase(const char* name, Trace* trace,
                           const Span* parent) {
  if (trace != nullptr) {
    span_ = parent != nullptr ? trace->StartSpan(name, *parent)
                              : trace->StartSpan(name);
  }
  ThreadStack* s = ThisThreadStack();
  const uint32_t d = s->depth.load(std::memory_order_relaxed);
  if (d >= kMaxProfileDepth) {
    s->truncated.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  s->frames[d].store(name, std::memory_order_relaxed);
  s->depth.store(d + 1, std::memory_order_release);
  state_ = s;
}

ProfilePhase::~ProfilePhase() {
  if (state_ == nullptr) return;
  ThreadStack* s = static_cast<ThreadStack*>(state_);
  const uint32_t d = s->depth.load(std::memory_order_relaxed);
  if (d > 0) s->depth.store(d - 1, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// ProfileSnapshot
// ---------------------------------------------------------------------------

std::string ProfileSnapshot::CollapsedText() const {
  std::string out;
  for (const ProfileEntry& e : entries) {
    out += e.stack + " " + std::to_string(e.samples) + "\n";
  }
  return out;
}

std::string ProfileSnapshot::RenderJsonl() const {
  std::string out;
  for (const ProfileEntry& e : entries) {
    std::string stack;
    stack.reserve(e.stack.size() + 4);
    for (char c : e.stack) {
      if (c == '"' || c == '\\') stack.push_back('\\');
      stack.push_back(c);
    }
    out += "{\"stack\":\"" + stack +
           "\",\"samples\":" + std::to_string(e.samples) +
           ",\"wall_ns\":" + std::to_string(e.wall_ns) +
           ",\"cpu_ns\":" + std::to_string(e.cpu_ns) + "}\n";
  }
  return out;
}

void ProfileSnapshot::MergeFrom(const ProfileSnapshot& other) {
  std::map<std::string, ProfileEntry> merged;
  for (const ProfileEntry& e : entries) merged[e.stack] = e;
  for (const ProfileEntry& e : other.entries) {
    ProfileEntry& slot = merged[e.stack];
    slot.stack = e.stack;
    slot.samples += e.samples;
    slot.wall_ns += e.wall_ns;
    slot.cpu_ns += e.cpu_ns;
  }
  entries.clear();
  entries.reserve(merged.size());
  for (auto& [stack, entry] : merged) entries.push_back(std::move(entry));
  samples_total += other.samples_total;
  truncated_pushes += other.truncated_pushes;
}

ProfileSnapshot ProfileSnapshot::Delta(const ProfileSnapshot& earlier) const {
  std::map<std::string, const ProfileEntry*> before;
  for (const ProfileEntry& e : earlier.entries) before[e.stack] = &e;
  ProfileSnapshot out;
  for (const ProfileEntry& e : entries) {
    const auto it = before.find(e.stack);
    ProfileEntry d;
    d.stack = e.stack;
    if (it == before.end()) {
      d = e;
    } else {
      const ProfileEntry& b = *it->second;
      d.samples = e.samples > b.samples ? e.samples - b.samples : 0;
      d.wall_ns = e.wall_ns > b.wall_ns ? e.wall_ns - b.wall_ns : 0;
      d.cpu_ns = e.cpu_ns > b.cpu_ns ? e.cpu_ns - b.cpu_ns : 0;
    }
    if (d.samples > 0 || d.wall_ns > 0 || d.cpu_ns > 0) {
      out.entries.push_back(std::move(d));
    }
  }
  for (const ProfileEntry& e : out.entries) out.samples_total += e.samples;
  out.truncated_pushes = truncated_pushes > earlier.truncated_pushes
                             ? truncated_pushes - earlier.truncated_pushes
                             : 0;
  return out;
}

std::vector<PhaseSummary> SummarizePhases(const ProfileSnapshot& snapshot) {
  std::map<std::string, PhaseSummary> phases;
  std::vector<std::string> parts;
  for (const ProfileEntry& e : snapshot.entries) {
    parts.clear();
    size_t start = 0;
    while (start <= e.stack.size()) {
      size_t sep = e.stack.find(';', start);
      if (sep == std::string::npos) sep = e.stack.size();
      if (sep > start) parts.push_back(e.stack.substr(start, sep - start));
      start = sep + 1;
    }
    if (parts.empty()) continue;
    // Leaf gets self; every distinct phase on the stack gets total once.
    PhaseSummary& leaf = phases[parts.back()];
    leaf.phase = parts.back();
    leaf.self_samples += e.samples;
    leaf.self_wall_ns += e.wall_ns;
    leaf.self_cpu_ns += e.cpu_ns;
    std::vector<std::string> distinct = parts;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    for (const std::string& p : distinct) {
      PhaseSummary& ps = phases[p];
      ps.phase = p;
      ps.total_samples += e.samples;
      ps.total_wall_ns += e.wall_ns;
      ps.total_cpu_ns += e.cpu_ns;
    }
  }
  std::vector<PhaseSummary> out;
  out.reserve(phases.size());
  for (auto& [name, ps] : phases) out.push_back(std::move(ps));
  std::sort(out.begin(), out.end(),
            [](const PhaseSummary& a, const PhaseSummary& b) {
              if (a.total_samples != b.total_samples) {
                return a.total_samples > b.total_samples;
              }
              return a.phase < b.phase;
            });
  return out;
}

std::vector<PhaseDelta> DiffProfiles(const ProfileSnapshot& baseline,
                                     const ProfileSnapshot& current,
                                     size_t top_n) {
  if (baseline.samples_total == 0 || current.samples_total == 0) return {};
  std::map<std::string, PhaseDelta> deltas;
  for (const ProfileEntry& e : baseline.entries) {
    PhaseDelta& d = deltas[e.stack];
    d.stack = e.stack;
    d.baseline_fraction = static_cast<double>(e.samples) /
                          static_cast<double>(baseline.samples_total);
  }
  for (const ProfileEntry& e : current.entries) {
    PhaseDelta& d = deltas[e.stack];
    d.stack = e.stack;
    d.current_fraction = static_cast<double>(e.samples) /
                         static_cast<double>(current.samples_total);
  }
  std::vector<PhaseDelta> out;
  for (auto& [stack, d] : deltas) {
    d.delta = d.current_fraction - d.baseline_fraction;
    if (d.delta > 0.0) out.push_back(std::move(d));
  }
  std::sort(out.begin(), out.end(), [](const PhaseDelta& a,
                                       const PhaseDelta& b) {
    if (a.delta != b.delta) return a.delta > b.delta;
    return a.stack < b.stack;
  });
  if (out.size() > top_n) out.resize(top_n);
  return out;
}

// ---------------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------------

Profiler::Profiler(Options options) : options_(std::move(options)) {
  if (!options_.clock) options_.clock = &SteadyNanos;
  if (options_.sample_interval_seconds <= 0.0) {
    options_.sample_interval_seconds = 0.010;
  }
  if (options_.window_ring_capacity == 0) options_.window_ring_capacity = 1;
  last_sample_ns_ = options_.clock();
  if (options_.registry != nullptr) {
    samples_counter_ =
        options_.registry->GetCounter(options_.metric_prefix +
                                      "samples_total");
    threads_busy_gauge_ =
        options_.registry->GetGauge(options_.metric_prefix + "threads_busy");
    truncated_counter_ = options_.registry->GetCounter(
        options_.metric_prefix + "truncated_pushes_total");
  }
}

Profiler::~Profiler() { Stop(); }

Status Profiler::Start() {
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (!stop_) {
    return Status::FailedPrecondition("Profiler: sampler already running");
  }
  stop_ = false;
  sampler_ = std::thread([this] { SamplerLoop(); });
  return Status::Ok();
}

void Profiler::Stop() {
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
}

bool Profiler::running() const {
  std::lock_guard<std::mutex> lock(thread_mu_);
  return !stop_;
}

void Profiler::SamplerLoop() {
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(options_.sample_interval_seconds));
  std::unique_lock<std::mutex> lock(thread_mu_);
  while (!stop_) {
    cv_.wait_for(lock, interval);
    if (stop_) break;
    lock.unlock();
    SampleOnce();
    lock.lock();
  }
}

void Profiler::SampleOnce() {
  const uint64_t now = options_.clock();
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t wall_delta = now > last_sample_ns_ ? now - last_sample_ns_
                                                    : 0;
  last_sample_ns_ = now;

  size_t busy = 0;
  uint64_t sampled = 0;
  const char* frames[kMaxProfileDepth];
  StackRegistry::Instance().ForEachLive([&](ThreadStack* s) {
    const uint32_t depth = s->depth.load(std::memory_order_acquire);
    if (depth == 0) {
      // Idle thread: drop the CPU cursor so time burned outside any phase
      // is never attributed to the next phase it enters.
      s->cpu_seen = false;
      return;
    }
    const uint32_t d =
        depth > kMaxProfileDepth ? kMaxProfileDepth : depth;
    bool ok = true;
    for (uint32_t i = 0; i < d; ++i) {
      frames[i] = s->frames[i].load(std::memory_order_relaxed);
      if (frames[i] == nullptr) {
        ok = false;
        break;
      }
    }
    if (!ok) return;

    std::string key;
    for (uint32_t i = 0; i < d; ++i) {
      if (i > 0) key.push_back(';');
      key += frames[i];
    }

    const uint64_t cpu = options_.cpu_now ? options_.cpu_now(s->slot)
                                          : ReadThreadCpu(*s);
    uint64_t cpu_delta = 0;
    if (s->cpu_seen && cpu > s->last_cpu_ns) {
      cpu_delta = cpu - s->last_cpu_ns;
    }
    s->last_cpu_ns = cpu;
    s->cpu_seen = true;

    ProfileEntry& e = aggregate_[key];
    e.stack = key;
    e.samples += 1;
    e.wall_ns += wall_delta;
    e.cpu_ns += cpu_delta;
    ++busy;
    ++sampled;
  });
  samples_total_ += sampled;

  if (samples_counter_ != nullptr) samples_counter_->Increment(sampled);
  if (threads_busy_gauge_ != nullptr) {
    threads_busy_gauge_->Set(static_cast<double>(busy));
  }
  if (truncated_counter_ != nullptr) {
    const uint64_t truncated = StackRegistry::Instance().TruncatedPushes();
    const uint64_t have = truncated_counter_->Value();
    if (truncated > have) truncated_counter_->Increment(truncated - have);
  }
}

ProfileSnapshot Profiler::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  ProfileSnapshot snap;
  snap.entries.reserve(aggregate_.size());
  for (const auto& [stack, entry] : aggregate_) {
    snap.entries.push_back(entry);
  }
  snap.samples_total = samples_total_;
  snap.truncated_pushes = StackRegistry::Instance().TruncatedPushes();
  return snap;
}

ProfileSnapshot Profiler::CutWindow() {
  const ProfileSnapshot cumulative = Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  ProfileSnapshot window = cumulative.Delta(window_cursor_);
  window_cursor_ = cumulative;
  windows_.push_back(window);
  if (windows_.size() > options_.window_ring_capacity) {
    windows_.erase(windows_.begin());
  }
  return window;
}

std::vector<ProfileSnapshot> Profiler::Windows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return windows_;
}

bool Profiler::FreezeBaseline() {
  std::lock_guard<std::mutex> lock(mu_);
  if (windows_.empty()) return false;
  baseline_ = windows_.back();
  has_baseline_ = baseline_.samples_total > 0;
  return has_baseline_;
}

bool Profiler::has_baseline() const {
  std::lock_guard<std::mutex> lock(mu_);
  return has_baseline_;
}

std::vector<PhaseDelta> Profiler::AttributeRegression(size_t top_n) const {
  const ProfileSnapshot cumulative = Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  if (!has_baseline_) return {};
  const ProfileSnapshot live = cumulative.Delta(window_cursor_);
  return DiffProfiles(baseline_, live, top_n);
}

uint64_t Profiler::samples_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_total_;
}

SloTracker::AlertState CheckSloWithAttribution(SloTracker* tracker,
                                               const Profiler* profiler,
                                               Logger* logger,
                                               size_t top_n) {
  const bool was_firing = tracker->firing();
  SloTracker::AlertState state = tracker->Check();
  if (!state.firing || was_firing || profiler == nullptr ||
      logger == nullptr) {
    return state;
  }
  const std::vector<PhaseDelta> deltas =
      profiler->AttributeRegression(top_n);
  if (deltas.empty()) {
    logger->Log(LogLevel::kWarn, "profile",
                "slo burn fired; no profile baseline for attribution",
                {{"slo", tracker->options().name}});
    return state;
  }
  for (size_t i = 0; i < deltas.size(); ++i) {
    const PhaseDelta& d = deltas[i];
    logger->Log(LogLevel::kWarn, "profile", "slo burn attribution",
                {{"slo", tracker->options().name},
                 {"rank", static_cast<int>(i)},
                 {"stack", d.stack},
                 {"baseline_share", d.baseline_fraction},
                 {"current_share", d.current_fraction},
                 {"delta", d.delta}});
  }
  return state;
}

}  // namespace lightlt::obs
