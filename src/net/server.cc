#include "src/net/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/util/timer.h"

namespace lightlt::net {
namespace {

constexpr double kAcceptTickSeconds = 0.05;
constexpr double kDrainPollSeconds = 0.005;

}  // namespace

ShardServer::ShardServer(std::shared_ptr<const serving::ShardSet> shards,
                         const ShardServerOptions& options)
    : shards_(std::move(shards)), options_(options) {
  trace_clock_ = options_.trace_clock ? options_.trace_clock
                                      : obs::TraceClock(&obs::SteadyNowNanos);
  wall_clock_ = options_.wall_clock ? options_.wall_clock
                                    : obs::TraceClock(&obs::UnixNowNanos);
}

ShardServer::~ShardServer() { ShutdownNow(); }

void ShardServer::RegisterMetrics() {
  obs::MetricsRegistry* reg = options_.metrics;
  if (reg == nullptr) return;
  const std::string& p = options_.metric_prefix;
  active_connections_gauge_ = reg->GetGauge(p + "active_connections");
  frames_received_counter_ = reg->GetCounter(p + "frames_received_total");
  frames_sent_counter_ = reg->GetCounter(p + "frames_sent_total");
  requests_ok_counter_ = reg->GetCounter(
      obs::WithLabel(p + "requests_total", "outcome", "ok"));
  requests_error_counter_ = reg->GetCounter(
      obs::WithLabel(p + "requests_total", "outcome", "error"));
  wire_errors_counter_ = reg->GetCounter(p + "wire_errors_total");
  forced_closes_counter_ = reg->GetCounter(p + "forced_closes_total");
  drain_seconds_hist_ = reg->GetHistogram(p + "drain_seconds");
  request_seconds_hist_ = reg->GetHistogram(p + "request_seconds");
}

Status ShardServer::Start() {
  if (serving_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("ShardServer: already started");
  }
  if (stopped_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "ShardServer: cannot restart a stopped server (build a new one)");
  }
  auto listener = Listener::Bind(options_.host, options_.port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  port_ = listener_.port();

  if (options_.admin_listener) {
    auto admin = Listener::Bind(options_.host, options_.admin_port);
    if (!admin.ok()) {
      listener_.Close();
      return admin.status();
    }
    admin_listener_ = std::move(admin).value();
    admin_port_ = admin_listener_.port();
  }

  if (options_.pool != nullptr) {
    pool_ = options_.pool;
  } else {
    own_pool_ = std::make_unique<ThreadPool>(options_.own_pool_threads);
    pool_ = own_pool_.get();
  }
  handlers_ = std::make_unique<TaskGroup>(pool_);
  RegisterMetrics();

  serving_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(&listener_); });
  if (admin_listener_.valid()) {
    admin_accept_thread_ = std::thread([this] { AcceptLoop(&admin_listener_); });
  }
  return Status::Ok();
}

void ShardServer::AcceptLoop(Listener* listener) {
  while (serving_.load(std::memory_order_acquire)) {
    Result<Socket> accepted = listener->Accept(kAcceptTickSeconds);
    if (!accepted.ok()) {
      if (accepted.status().code() == StatusCode::kDeadlineExceeded) continue;
      break;  // listener closed
    }
    auto sock = std::make_shared<Socket>(std::move(accepted).value());
    uint64_t id;
    size_t active;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      id = next_conn_id_++;
      conns_[id] = Conn{sock};
      active = conns_.size();
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    if (active_connections_gauge_ != nullptr) {
      active_connections_gauge_->Set(static_cast<double>(active));
    }
    handlers_->Submit([this, id, sock] { HandleConnection(id, sock); });
  }
}

void ShardServer::HandleConnection(uint64_t id, std::shared_ptr<Socket> sock) {
  while (true) {
    // Idle wait for the next request header under the *drain* token: a
    // connection between requests closes cleanly the moment a drain
    // starts, while a committed request (header already in) is allowed to
    // finish below under the harder stop token.
    uint8_t header[kFrameHeaderBytes];
    const ScanControl idle{Deadline(), drain_.token()};
    Status status = sock->RecvAll(header, kFrameHeaderBytes, idle);
    if (!status.ok()) break;
    // Frame receipt time on the server's trace clock: the start of the
    // rpc_recv span if this turns out to be a sampled search request.
    const uint64_t recv_ns = trace_clock_();

    Frame frame;
    const ScanControl busy{Deadline::After(options_.write_budget_seconds),
                           hard_stop_.token()};
    status = ReadFrameGivenHeader(sock.get(), header, &frame, busy,
                                  options_.max_frame_body);
    if (!status.ok()) {
      // kIoError is a framing violation (bad magic/length/CRC): the stream
      // position is untrustworthy, so the connection must die. Transport
      // failures (peer vanished, stop raised) also end the loop but are
      // not the wire's fault.
      if (status.code() == StatusCode::kIoError) {
        wire_errors_.fetch_add(1, std::memory_order_relaxed);
        if (wire_errors_counter_ != nullptr) wire_errors_counter_->Increment();
      }
      break;
    }
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    if (frames_received_counter_ != nullptr) {
      frames_received_counter_->Increment();
    }
    if (!ServeFrame(sock.get(), frame, recv_ns)) break;
  }

  sock->Close();
  size_t active;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.erase(id);
    active = conns_.size();
  }
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
  if (active_connections_gauge_ != nullptr) {
    active_connections_gauge_->Set(static_cast<double>(active));
  }
}

bool ShardServer::HostsShard(uint32_t shard) const {
  if (shard >= shards_->num_shards()) return false;
  if (options_.hosted_shards.empty()) return true;
  for (size_t hosted : options_.hosted_shards) {
    if (hosted == shard) return true;
  }
  return false;
}

bool ShardServer::ServeFrame(Socket* sock, const Frame& frame,
                             uint64_t recv_ns) {
  const ScanControl write_ctl{Deadline::After(options_.write_budget_seconds),
                              hard_stop_.token()};
  auto send = [&](FrameType type, const std::vector<uint8_t>& body) {
    Status s = WriteFrame(sock, type, body, write_ctl);
    if (s.ok()) {
      frames_sent_.fetch_add(1, std::memory_order_relaxed);
      if (frames_sent_counter_ != nullptr) frames_sent_counter_->Increment();
      return true;
    }
    return false;
  };

  switch (frame.type) {
    case FrameType::kPing:
      return send(FrameType::kPong, frame.body);

    case FrameType::kInfoRequest: {
      uint32_t shard = 0;
      if (!DecodeInfoRequest(frame.body, &shard).ok()) {
        wire_errors_.fetch_add(1, std::memory_order_relaxed);
        if (wire_errors_counter_ != nullptr) wire_errors_counter_->Increment();
        return false;
      }
      WireInfoResponse resp;
      resp.shard = shard;
      if (!HostsShard(shard)) {
        resp.code = static_cast<int32_t>(StatusCode::kNotFound);
        resp.message = "net: shard not hosted by this server";
      } else {
        resp.items = shards_->shard_items(shard);
        resp.global_offset = shards_->shard_offset(shard);
        resp.total_items = shards_->total_items();
        resp.dim = static_cast<uint32_t>(shards_->searcher(shard, 0).dim());
      }
      return send(FrameType::kInfoResponse, EncodeInfoResponse(resp));
    }

    case FrameType::kSearchRequest: {
      obs::ProfilePhase serve_phase("rpc_serve");
      WireSearchRequest req;
      if (!DecodeSearchRequest(frame.body, &req).ok()) {
        wire_errors_.fetch_add(1, std::memory_order_relaxed);
        if (wire_errors_counter_ != nullptr) wire_errors_counter_->Increment();
        return false;
      }
      // Server-side span tree under the propagated context
      // (rpc_recv → decode / scan / encode_reply): only built when the
      // client sampled the request, and re-based onto the client's steady
      // timeline before it goes on the wire (DESIGN.md §15).
      std::unique_ptr<obs::Trace> trace;
      obs::Span rpc_span;
      if (req.trace.sampled) {
        trace = std::make_unique<obs::Trace>(trace_clock_, wall_clock_);
        trace->set_trace_id(req.trace.trace_id);
        rpc_span = trace->StartSpanAt("rpc_recv", obs::Span(), recv_ns);
        // [frame header seen, request decoded] — body receive + decode.
        trace->AddCompleteSpan("decode", rpc_span, recv_ns, trace_clock_());
      }
      WireSearchResponse resp;
      WallTimer timer;
      if (!HostsShard(req.shard)) {
        resp.code = static_cast<int32_t>(StatusCode::kNotFound);
        resp.message = "net: shard not hosted by this server";
      } else if (req.replica >= shards_->num_replicas()) {
        resp.code = static_cast<int32_t>(StatusCode::kInvalidArgument);
        resp.message = "net: replica id out of range";
      } else if (req.top_k == 0 ||
                 req.query.size() !=
                     shards_->searcher(req.shard, req.replica).dim()) {
        resp.code = static_cast<int32_t>(StatusCode::kInvalidArgument);
        resp.message = "net: bad top_k or query dimension";
      } else {
        // Re-materialise the client's remaining budget as a server-side
        // deadline: the replica scan is cut on this machine exactly where
        // it would have been cut in process.
        const Deadline deadline = req.budget_seconds < 0.0
                                      ? Deadline()
                                      : Deadline::After(req.budget_seconds);
        const ScanControl control{deadline, hard_stop_.token(),
                                  options_.scan_check_every};
        serving::ReplicaAttempt attempt;
        {
          obs::ProfilePhase scan_phase("scan", trace.get(), &rpc_span);
          attempt = shards_->SearchReplica(
              req.shard, req.replica, req.query.data(), req.top_k, control,
              trace.get(), &scan_phase.span());
        }
        resp.code = static_cast<int32_t>(attempt.status.code());
        resp.message = attempt.status.message();
        resp.hits = std::move(attempt.hits);
        resp.shed = attempt.shed;
      }
      resp.server_seconds = timer.ElapsedSeconds();
      if (request_seconds_hist_ != nullptr) {
        request_seconds_hist_->Record(resp.server_seconds);
      }
      if (trace != nullptr) {
        // encode_reply covers reply assembly up to the span snapshot;
        // serializing the spans themselves happens after the tree is
        // frozen — the one interval the trace cannot observe (§15).
        const uint64_t enc_start = trace_clock_();
        trace->AddCompleteSpan("encode_reply", rpc_span, enc_start,
                               trace_clock_());
        rpc_span.End();
        std::vector<obs::Trace::SpanRecord> records = trace->Records();
        // Re-base onto the client's steady timeline: +server offset takes
        // a reading to unix time, −client offset takes it back to the
        // client's steady clock.
        obs::ShiftSpanTimes(
            &records, trace->unix_minus_steady() - req.trace.unix_minus_steady);
        resp.spans = std::move(records);
      }
      if (resp.code == static_cast<int32_t>(StatusCode::kOk)) {
        requests_ok_.fetch_add(1, std::memory_order_relaxed);
        if (requests_ok_counter_ != nullptr) requests_ok_counter_->Increment();
      } else {
        requests_error_.fetch_add(1, std::memory_order_relaxed);
        if (requests_error_counter_ != nullptr) {
          requests_error_counter_->Increment();
        }
      }
      return send(FrameType::kSearchResponse, EncodeSearchResponse(resp));
    }

    case FrameType::kMetricsRequest: {
      if (!DecodeMetricsRequest(frame.body).ok()) {
        wire_errors_.fetch_add(1, std::memory_order_relaxed);
        if (wire_errors_counter_ != nullptr) wire_errors_counter_->Increment();
        return false;
      }
      WireMetricsResponse resp;
      if (options_.metrics == nullptr) {
        resp.code = static_cast<int32_t>(StatusCode::kFailedPrecondition);
        resp.message = "net: metrics not enabled on this server";
      } else {
        resp.code = static_cast<int32_t>(StatusCode::kOk);
        resp.prometheus_text = options_.metrics->RenderText();
        resp.sub_buckets = obs::Histogram::kSubBuckets;
        resp.min_exponent = obs::Histogram::kMinExponent;
        resp.max_exponent = obs::Histogram::kMaxExponent;
        resp.snapshot = options_.metrics->Snapshot();
      }
      return send(FrameType::kMetricsResponse, EncodeMetricsResponse(resp));
    }

    case FrameType::kProfileRequest: {
      if (!DecodeProfileRequest(frame.body).ok()) {
        wire_errors_.fetch_add(1, std::memory_order_relaxed);
        if (wire_errors_counter_ != nullptr) wire_errors_counter_->Increment();
        return false;
      }
      WireProfileResponse resp;
      if (options_.profiler == nullptr) {
        resp.code = static_cast<int32_t>(StatusCode::kFailedPrecondition);
        resp.message = "net: profiler not enabled on this server";
      } else {
        resp.code = static_cast<int32_t>(StatusCode::kOk);
        resp.profile = options_.profiler->Snapshot();
      }
      return send(FrameType::kProfileResponse, EncodeProfileResponse(resp));
    }

    default:
      // Response/pong types arriving at a server are a protocol violation.
      wire_errors_.fetch_add(1, std::memory_order_relaxed);
      if (wire_errors_counter_ != nullptr) wire_errors_counter_->Increment();
      return false;
  }
}

void ShardServer::Drain() { StopInternal(options_.drain_deadline_seconds); }

void ShardServer::ShutdownNow() { StopInternal(0.0); }

void ShardServer::StopInternal(double drain_seconds) {
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (stopped_.load(std::memory_order_acquire)) return;
  const bool was_serving = serving_.load(std::memory_order_acquire);
  WallTimer timer;

  // Phase 1: stop accepting and wake idle connections. Handlers blocked
  // waiting for a request header observe the drain token within one poll
  // tick and close cleanly.
  serving_.store(false, std::memory_order_release);
  listener_.Close();
  admin_listener_.Close();
  drain_.RequestCancellation();

  // Phase 2: let committed requests finish and flush, up to the budget.
  if (drain_seconds > 0.0) {
    const Deadline drain_deadline = Deadline::After(drain_seconds);
    while (!drain_deadline.Expired()) {
      {
        std::lock_guard<std::mutex> conns_lock(conns_mu_);
        if (conns_.empty()) break;
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(kDrainPollSeconds, drain_deadline.RemainingSeconds())));
    }
  }

  // Phase 3: reset whatever is left.
  hard_stop_.RequestCancellation();
  {
    std::lock_guard<std::mutex> conns_lock(conns_mu_);
    for (auto& [id, conn] : conns_) {
      conn.sock->ShutdownNow();
      forced_closes_.fetch_add(1, std::memory_order_relaxed);
      if (forced_closes_counter_ != nullptr) {
        forced_closes_counter_->Increment();
      }
    }
  }

  if (accept_thread_.joinable()) accept_thread_.join();
  if (admin_accept_thread_.joinable()) admin_accept_thread_.join();
  if (handlers_ != nullptr) handlers_->Wait();
  stopped_.store(true, std::memory_order_release);

  if (was_serving) {
    const double elapsed = timer.ElapsedSeconds();
    last_drain_seconds_.store(elapsed, std::memory_order_relaxed);
    if (drain_seconds_hist_ != nullptr) drain_seconds_hist_->Record(elapsed);
  }
}

ShardServerStats ShardServer::stats() const {
  ShardServerStats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_closed = connections_closed_.load(std::memory_order_relaxed);
  s.frames_received = frames_received_.load(std::memory_order_relaxed);
  s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  s.requests_ok = requests_ok_.load(std::memory_order_relaxed);
  s.requests_error = requests_error_.load(std::memory_order_relaxed);
  s.wire_errors = wire_errors_.load(std::memory_order_relaxed);
  s.forced_closes = forced_closes_.load(std::memory_order_relaxed);
  s.last_drain_seconds = last_drain_seconds_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace lightlt::net
