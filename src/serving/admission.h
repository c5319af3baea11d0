// Admission control for RetrievalService (DESIGN.md §9): bounded in-flight
// occupancy, observed-backlog shedding and a token-bucket rate limiter,
// with a configurable soft-overload response (reject vs. serve degraded).
//
// Decision ladder, evaluated per request in this order:
//   1. token bucket empty            → shed (kUnavailable) — rate pressure
//   2. in_flight >= max_in_flight    → shed — hard occupancy cap
//   3. backlog > max_queue_depth     → soft overload
//   4. in_flight >= degrade_in_flight→ soft overload
// Soft overload resolves per `on_overload`: kShed rejects, kDegrade admits
// the request in degraded mode (the service then skips the IVF path and
// serves from the flat scan).
//
// Thread-safe; the token-bucket clock is injectable for deterministic
// tests.

#ifndef LIGHTLT_SERVING_ADMISSION_H_
#define LIGHTLT_SERVING_ADMISSION_H_

#include <cstddef>
#include <functional>
#include <mutex>

namespace lightlt::serving {

struct AdmissionOptions {
  /// Hard cap on concurrently admitted requests; at the cap new requests
  /// are shed (0 = unlimited).
  size_t max_in_flight = 0;
  /// Soft cap: at or above this many in-flight requests, new requests are
  /// soft-overloaded (0 = off). Meaningful only below max_in_flight.
  size_t degrade_in_flight = 0;
  /// Observed executor backlog (e.g. ThreadPool::ApproxQueueDepth())
  /// above which new requests are soft-overloaded (0 = off).
  size_t max_queue_depth = 0;
  /// Token-bucket rate limit: sustained requests/second and burst size
  /// (rate 0 = unlimited; burst tokens accrue up to `burst`).
  double rate_per_second = 0.0;
  double burst = 1.0;
  enum class OverloadPolicy { kShed, kDegrade };
  OverloadPolicy on_overload = OverloadPolicy::kShed;
  /// Injectable monotonic clock (seconds); defaults to the steady clock.
  std::function<double()> clock;
};

enum class AdmissionOutcome {
  kAdmit,    // serve at full quality
  kDegrade,  // serve, but shed optional work (the IVF path)
  kShed,     // reject with kUnavailable
};

class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionOptions& options);

  /// Decides one request's fate. `observed_queue_depth` is the caller's
  /// view of executor backlog (0 when it has none). kAdmit/kDegrade count
  /// against in-flight and MUST be paired with Release(); kShed must not.
  AdmissionOutcome TryAdmit(size_t observed_queue_depth = 0);

  /// One admitted (or degraded-admitted) request finished.
  void Release();

  size_t InFlight() const;

 private:
  double Now() const;

  AdmissionOptions options_;
  mutable std::mutex mu_;
  size_t in_flight_ = 0;
  double tokens_ = 0.0;
  double last_refill_ = 0.0;
  bool bucket_started_ = false;
};

/// RAII pairing for TryAdmit: releases the slot on destruction. Only
/// meaningful for kAdmit/kDegrade outcomes.
class AdmissionTicket {
 public:
  AdmissionTicket() = default;
  explicit AdmissionTicket(AdmissionController* controller)
      : controller_(controller) {}
  AdmissionTicket(AdmissionTicket&& other) noexcept
      : controller_(other.controller_) {
    other.controller_ = nullptr;
  }
  AdmissionTicket& operator=(AdmissionTicket&& other) noexcept {
    if (this != &other) {
      Release();
      controller_ = other.controller_;
      other.controller_ = nullptr;
    }
    return *this;
  }
  ~AdmissionTicket() { Release(); }

  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;

  void Release() {
    if (controller_ != nullptr) {
      controller_->Release();
      controller_ = nullptr;
    }
  }

 private:
  AdmissionController* controller_ = nullptr;
};

}  // namespace lightlt::serving

#endif  // LIGHTLT_SERVING_ADMISSION_H_
