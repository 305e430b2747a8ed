#include "transport/sender.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.hpp"
#include "util/logging.hpp"

namespace adaptviz {

FrameSender::FrameSender(EventQueue& queue, NetworkLink& link,
                         FrameCatalog& catalog, DiskModel& disk,
                         BandwidthEstimator& estimator, DeliveryFn deliver,
                         Options options)
    : queue_(queue),
      link_(link),
      catalog_(catalog),
      disk_(disk),
      estimator_(estimator),
      deliver_(std::move(deliver)),
      options_(options),
      jitter_rng_(options.seed) {
  if (!deliver_) throw std::invalid_argument("FrameSender: null delivery");
  if (options_.poll_interval.seconds() <= 0) {
    throw std::invalid_argument("FrameSender: poll interval must be > 0");
  }
  const RetryPolicy& r = options_.retry;
  if (r.initial_backoff.seconds() <= 0 || r.max_backoff < r.initial_backoff) {
    throw std::invalid_argument("FrameSender: bad backoff bounds");
  }
  if (r.multiplier < 1.0) {
    throw std::invalid_argument("FrameSender: backoff multiplier must be >= 1");
  }
  if (r.jitter < 0.0 || r.jitter >= 1.0) {
    throw std::invalid_argument("FrameSender: jitter must be in [0, 1)");
  }
  if (r.degrade_after < 1) {
    throw std::invalid_argument("FrameSender: degrade_after must be >= 1");
  }
}

void FrameSender::start() {
  if (running_) return;
  running_ = true;
  try_send();
}

void FrameSender::stop() { running_ = false; }

void FrameSender::kick() { try_send(); }

void FrameSender::poll_event() {
  poll_scheduled_ = false;
  try_send();
}

void FrameSender::retry_event() {
  retry_pending_ = false;
  current_backoff_ = WallSeconds(0.0);
  if (!running_) return;
  ++retries_;
  obs::count("transport.retries");
  try_send();
}

void FrameSender::try_send() {
  // A pending retry owns the next attempt: kicks and polls must not sneak
  // a transfer in ahead of the backoff.
  if (!running_ || in_flight_ || retry_pending_) return;
  if (catalog_.empty()) {
    if (!poll_scheduled_) {
      poll_scheduled_ = true;
      queue_.schedule_after(
          options_.poll_interval, [this] { poll_event(); }, "sender.poll");
    }
    return;
  }
  begin_transfer();
}

void FrameSender::begin_transfer() {
  Frame frame = catalog_.pop_oldest();
  in_flight_ = true;
  const WallSeconds start = queue_.now();
  const NetworkLink::TransferAttempt attempt =
      link_.plan_transfer(frame.size, start);
  obs::count("transport.attempts");
  ADAPTVIZ_LOG_DEBUG("sender", "frame #%lld (%s) in flight, eta %.1fs%s",
                     static_cast<long long>(frame.sequence),
                     to_string(frame.size).c_str(),
                     attempt.duration.seconds(),
                     attempt.failed ? " [will abort]" : "");
  queue_.schedule_after(
      attempt.duration,
      [this, frame = std::move(frame), attempt, start] {
        in_flight_ = false;
        if (!running_) {
          // Stopped mid-flight: nothing was delivered and the bytes are
          // still on disk. Put the frame back so it is not silently lost —
          // a restarted sender ships it first.
          catalog_.requeue_front(frame);
          return;
        }
        if (attempt.failed) {
          on_transfer_failed(frame);
          return;
        }
        // Transferred data is removed from the simulation site (paper,
        // Section I), freeing disk for new frames. Only a *successful*
        // transfer releases disk or feeds the bandwidth estimate.
        disk_.release(frame.size);
        estimator_.record_transfer(frame.size, attempt.duration);
        consecutive_failures_ = 0;
        if (degraded_) obs::gauge_set("transport.link_degraded", 0.0);
        degraded_ = false;
        ++frames_sent_;
        bytes_sent_ += frame.size;
        obs::count("transport.frames_sent");
        obs::trace_sim("transport.transfer", start.seconds(),
                       attempt.duration.seconds(),
                       "seq=" + std::to_string(frame.sequence) +
                           " gb=" + std::to_string(frame.size.gb()));
        deliver_(frame);
        try_send();
      },
      "sender.complete");
}

void FrameSender::on_transfer_failed(Frame frame) {
  ++failures_;
  ++consecutive_failures_;
  obs::count("transport.failures");
  if (consecutive_failures_ >= options_.retry.degrade_after && !degraded_) {
    degraded_ = true;
    obs::gauge_set("transport.link_degraded", 1.0);
    ADAPTVIZ_LOG_INFO("sender",
                      "[%s] link degraded after %d consecutive failures",
                      hh_mm(queue_.now()).c_str(), consecutive_failures_);
  }
  const std::int64_t seq = frame.sequence;
  // The frame's bytes never left the simulation site: disk is NOT
  // released, and the frame returns to the catalog head to be re-sent
  // (the paper's delete-after-transfer semantics).
  catalog_.requeue_front(std::move(frame));
  const RetryPolicy& r = options_.retry;
  double delay = r.initial_backoff.seconds() *
                 std::pow(r.multiplier,
                          static_cast<double>(consecutive_failures_ - 1));
  delay = std::min(delay, r.max_backoff.seconds());
  if (r.jitter > 0.0) {
    delay *= jitter_rng_.uniform(1.0 - r.jitter, 1.0 + r.jitter);
  }
  current_backoff_ = WallSeconds(delay);
  retry_pending_ = true;
  obs::observe("transport.backoff_seconds", delay);
  ADAPTVIZ_LOG_DEBUG("sender",
                     "frame #%lld aborted (failure %d in a row), retry in "
                     "%.1fs%s",
                     static_cast<long long>(seq), consecutive_failures_,
                     delay, degraded_ ? " [LINK DEGRADED]" : "");
  queue_.schedule_after(
      current_backoff_, [this] { retry_event(); }, "sender.retry");
}

FrameSender::State FrameSender::snapshot() const {
  State s;
  s.jitter_rng = jitter_rng_;
  s.running = running_;
  s.in_flight = in_flight_;
  s.poll_scheduled = poll_scheduled_;
  s.retry_pending = retry_pending_;
  s.degraded = degraded_;
  s.consecutive_failures = consecutive_failures_;
  s.current_backoff = current_backoff_;
  s.frames_sent = frames_sent_;
  s.failures = failures_;
  s.retries = retries_;
  s.bytes_sent = bytes_sent_;
  return s;
}

void FrameSender::restore(const State& s) {
  jitter_rng_ = s.jitter_rng;
  running_ = s.running;
  in_flight_ = s.in_flight;
  poll_scheduled_ = s.poll_scheduled;
  retry_pending_ = s.retry_pending;
  degraded_ = s.degraded;
  consecutive_failures_ = s.consecutive_failures;
  current_backoff_ = s.current_backoff;
  frames_sent_ = s.frames_sent;
  failures_ = s.failures;
  retries_ = s.retries;
  bytes_sent_ = s.bytes_sent;
}

}  // namespace adaptviz
