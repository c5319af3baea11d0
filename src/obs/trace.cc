#include "src/obs/trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <utility>

namespace lightlt::obs {

uint64_t SteadyNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t UnixNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::string TraceIdHex(uint64_t trace_id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(trace_id));
  return std::string(buf);
}

namespace {

/// SplitMix64 over a process-wide counter seeded from the clock: cheap,
/// lock-free, and never returns 0 in practice (0 is reserved for "no
/// trace" in log lines).
uint64_t NextTraceId() {
  static std::atomic<uint64_t> counter{SteadyNowNanos() ^ UnixNowNanos()};
  uint64_t z = counter.fetch_add(0x9E3779B97F4A7C15ull,
                                 std::memory_order_relaxed) +
               0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z = z ^ (z >> 31);
  return z == 0 ? 1 : z;
}

}  // namespace

Span::Span(Span&& other) noexcept
    : trace_(other.trace_), index_(other.index_) {
  other.trace_ = nullptr;
  other.index_ = -1;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    End();
    trace_ = other.trace_;
    index_ = other.index_;
    other.trace_ = nullptr;
    other.index_ = -1;
  }
  return *this;
}

void Span::End() {
  if (trace_ != nullptr && index_ >= 0) {
    trace_->EndSpan(index_);
  }
  trace_ = nullptr;
  index_ = -1;
}

Trace::Trace(TraceClock clock, TraceClock wall_clock)
    : clock_(std::move(clock)) {
  if (!clock_) clock_ = &SteadyNowNanos;
  TraceClock wall = std::move(wall_clock);
  if (!wall) wall = &UnixNowNanos;
  trace_id_ = NextTraceId();
  epoch_steady_ns_ = clock_();
  epoch_unix_ns_ = wall();
}

uint64_t Trace::AbsoluteUnixNanos(uint64_t steady_ns) const {
  const int64_t abs_ns = static_cast<int64_t>(steady_ns) + unix_minus_steady();
  return abs_ns < 0 ? 0 : static_cast<uint64_t>(abs_ns);
}

Span Trace::StartSpan(const std::string& name) {
  return StartSpan(name, Span());
}

Span Trace::StartSpan(const std::string& name, const Span& parent) {
  return StartSpanAt(name, parent, clock_());
}

Span Trace::StartSpanAt(const std::string& name, const Span& parent,
                        uint64_t start_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (records_.size() >= max_spans_) {
    ++dropped_spans_;
    return Span();
  }
  SpanRecord record;
  record.name = name;
  record.parent = parent.index_;
  record.start_ns = start_ns;
  records_.push_back(std::move(record));
  return Span(this, static_cast<int32_t>(records_.size() - 1));
}

int32_t Trace::AddCompleteSpan(const std::string& name, const Span& parent,
                               uint64_t start_ns, uint64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (records_.size() >= max_spans_) {
    ++dropped_spans_;
    return -1;
  }
  SpanRecord record;
  record.name = name;
  record.parent = parent.index_;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  records_.push_back(std::move(record));
  return static_cast<int32_t>(records_.size() - 1);
}

void Trace::SetShard(const Span& span, int32_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  if (span.index_ >= 0 && static_cast<size_t>(span.index_) < records_.size()) {
    records_[span.index_].shard = shard;
  }
}

void Trace::AttachRemote(const Span& parent,
                         std::vector<SpanRecord> remote, int32_t shard) {
  if (remote.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  const int32_t base = static_cast<int32_t>(records_.size());
  const int32_t remote_count = static_cast<int32_t>(remote.size());
  for (int32_t i = 0; i < remote_count; ++i) {
    if (records_.size() >= max_spans_) {
      // Everything not yet attached is dropped; parents of the records
      // already attached stay valid (they only point backwards).
      dropped_spans_ += static_cast<uint64_t>(remote_count - i);
      return;
    }
    SpanRecord rec = std::move(remote[static_cast<size_t>(i)]);
    // A subtree root hangs off the local parent. A malformed parent index
    // (self/forward/out-of-range — remote payloads are not trusted) is
    // clamped to the local parent rather than allowed to alias an
    // unrelated local record.
    if (rec.parent < 0 || rec.parent >= i) {
      rec.parent = parent.index_;
    } else {
      rec.parent += base;
    }
    rec.remote = true;
    rec.shard = shard;
    records_.push_back(std::move(rec));
  }
}

void Trace::set_max_spans(size_t max_spans) {
  std::lock_guard<std::mutex> lock(mu_);
  max_spans_ = max_spans == 0 ? 1 : max_spans;
}

size_t Trace::max_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_spans_;
}

uint64_t Trace::dropped_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_spans_;
}

void Trace::EndSpan(int32_t index) {
  const uint64_t now = clock_();
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= 0 && static_cast<size_t>(index) < records_.size() &&
      records_[index].end_ns == 0) {
    records_[index].end_ns = now;
  }
}

std::vector<Trace::SpanRecord> Trace::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

namespace {

void RenderSubtree(const std::vector<Trace::SpanRecord>& records,
                   int32_t parent, int depth, std::string* out) {
  for (size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    if (r.parent != parent) continue;
    out->append(static_cast<size_t>(depth) * 2, ' ');
    *out += r.name;
    if (r.end_ns >= r.start_ns && r.end_ns != 0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %.0fus",
                    static_cast<double>(r.end_ns - r.start_ns) * 1e-3);
      *out += buf;
    } else {
      *out += " (open)";
    }
    if (r.shard >= 0) {
      *out += " [shard " + std::to_string(r.shard) + "]";
    }
    out->push_back('\n');
    RenderSubtree(records, static_cast<int32_t>(i), depth + 1, out);
  }
}

void AppendJsonEscaped(const std::string& in, std::string* out) {
  for (char c : in) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

}  // namespace

std::string Trace::Render() const {
  const std::vector<SpanRecord> records = Records();
  std::string out;
  RenderSubtree(records, -1, 0, &out);
  return out;
}

std::string Trace::RenderJsonl() const {
  const std::vector<SpanRecord> records = Records();
  std::string out;
  for (size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& r = records[i];
    out += "{\"trace_id\":\"" + TraceIdHex(trace_id_) +
           "\",\"span\":" + std::to_string(i) + ",\"name\":\"";
    AppendJsonEscaped(r.name, &out);
    out += "\",\"parent\":" + std::to_string(r.parent) +
           ",\"start_unix_ns\":" + std::to_string(AbsoluteUnixNanos(r.start_ns)) +
           ",\"start_ns\":" + std::to_string(r.start_ns) + ",\"duration_ns\":" +
           std::to_string(r.end_ns >= r.start_ns && r.end_ns != 0
                              ? r.end_ns - r.start_ns
                              : 0) +
           ",\"shard\":" + std::to_string(r.shard) +
           ",\"remote\":" + (r.remote ? "true" : "false") + "}\n";
  }
  return out;
}

void ShiftSpanTimes(std::vector<Trace::SpanRecord>* records,
                    int64_t offset_ns) {
  for (Trace::SpanRecord& r : *records) {
    const int64_t start = static_cast<int64_t>(r.start_ns) + offset_ns;
    r.start_ns = start < 0 ? 0 : static_cast<uint64_t>(start);
    if (r.end_ns != 0) {
      const int64_t end = static_cast<int64_t>(r.end_ns) + offset_ns;
      r.end_ns = end < 1 ? 1 : static_cast<uint64_t>(end);
    }
  }
}

}  // namespace lightlt::obs
