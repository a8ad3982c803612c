// queue.h — blocking multi-producer/multi-consumer queues.
//
// Every NTCS module owns queues at several points: the simnet inbox, the
// LCM-Layer application message queue, per-request reply slots, and the DRTS
// monitor feed. A single well-tested primitive serves them all.
#pragma once

#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>
#include <utility>

#include "common/annotated.h"
#include "common/error.h"
#include "common/metrics.h"

namespace ntcs {

/// Blocking FIFO queue. push() never blocks (unbounded by default; a
/// capacity turns push into try-push). pop() blocks with an optional
/// deadline. close() wakes all waiters; subsequent pops drain remaining
/// items and then report Errc::closed.
///
/// Priority classes (overload control): a `control_reserve` keeps the top
/// slots of a bounded queue for control-class items. push() — the normal
/// (data) class — rejects once `capacity - reserve` items are queued, while
/// push_control() may fill the queue to its true capacity. Data-plane
/// overload therefore cannot starve control traffic (NSP lookups, DRTS
/// harvests, replies) of queue admission.
template <typename T>
class BlockingQueue {
 public:
  explicit BlockingQueue(std::size_t capacity = 0,
                         std::size_t control_reserve = 0)
      : capacity_(capacity),
        control_reserve_(capacity == 0 ? 0
                                       : std::min(control_reserve,
                                                  capacity - 1)) {}

  BlockingQueue(const BlockingQueue&) = delete;
  BlockingQueue& operator=(const BlockingQueue&) = delete;

  /// Enqueue at normal (data) class. Fails with no_resource when a
  /// capacity is set and the data-class share (capacity - control reserve)
  /// is reached, or with closed after close().
  Status push(T item) { return push_class(std::move(item), control_reserve_); }

  /// Enqueue at control class: may consume the reserved headroom, so it
  /// only fails once the queue is at true capacity (or closed).
  Status push_control(T item) { return push_class(std::move(item), 0); }

  /// Blocking dequeue; waits forever.
  Result<T> pop() {
    ntcs::UniqueLock lk(mu_);
    cv_.wait(lk, [&] { return !q_.empty() || closed_; });
    return pop_locked();
  }

  /// Dequeue with a relative timeout.
  Result<T> pop_for(std::chrono::nanoseconds timeout) {
    ntcs::UniqueLock lk(mu_);
    if (!cv_.wait_for(lk, timeout, [&] { return !q_.empty() || closed_; })) {
      return Error(Errc::timeout, "queue pop timed out");
    }
    return pop_locked();
  }

  /// Non-blocking dequeue.
  std::optional<T> try_pop() {
    ntcs::LockGuard lk(mu_);
    if (q_.empty()) return std::nullopt;
    T item = std::move(q_.front());
    q_.pop_front();
    if (depth_gauge_ != nullptr) depth_gauge_->sub(1);
    return item;
  }

  /// Publish this queue's live depth (and its bound) into the metrics
  /// registry for the health plane. Delta-based (+1 per push, -1 per pop),
  /// so several queues may share one depth gauge and it reads as their
  /// aggregate (the simnet inbox idiom). The bound gauge, when given, is
  /// set to this queue's capacity once. Call during owner setup; the
  /// gauges must outlive the queue (registry gauges always do).
  void set_depth_gauge(metrics::Gauge* depth, metrics::Gauge* bound = nullptr) {
    ntcs::LockGuard lk(mu_);
    depth_gauge_ = depth;
    if (depth != nullptr && !q_.empty()) {
      depth->add(static_cast<std::int64_t>(q_.size()));
    }
    if (bound != nullptr) bound->set(static_cast<std::int64_t>(capacity_));
  }

  /// Close the queue; waiters wake, remaining items stay poppable.
  void close() {
    {
      ntcs::LockGuard lk(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    ntcs::LockGuard lk(mu_);
    return closed_;
  }

  std::size_t size() const {
    ntcs::LockGuard lk(mu_);
    return q_.size();
  }

  bool empty() const { return size() == 0; }

  /// A pop would not block: an item is queued or the queue is closed.
  bool ready() const {
    ntcs::LockGuard lk(mu_);
    return !q_.empty() || closed_;
  }

 private:
  Status push_class(T item, std::size_t reserve) {
    {
      ntcs::LockGuard lk(mu_);
      if (closed_) return Status(Errc::closed, "queue closed");
      if (capacity_ != 0 && q_.size() + reserve >= capacity_) {
        return Status(Errc::no_resource, "queue full");
      }
      q_.push_back(std::move(item));
      if (depth_gauge_ != nullptr) depth_gauge_->add(1);
    }
    cv_.notify_one();
    return Status::success();
  }

  Result<T> pop_locked() REQUIRES(mu_) {
    if (!q_.empty()) {
      T item = std::move(q_.front());
      q_.pop_front();
      if (depth_gauge_ != nullptr) depth_gauge_->sub(1);
      return item;
    }
    return Error(Errc::closed, "queue closed");
  }

  // Leaf rank: queues are pushed/popped from under no other lock, and
  // nothing is acquired while holding the queue lock.
  mutable ntcs::Mutex mu_{ntcs::lockrank::kBlockingQueue, "common.queue"};
  ntcs::CondVar cv_;
  std::deque<T> q_ GUARDED_BY(mu_);  // bound: capacity_ (0 = unbounded by owner's choice)
  metrics::Gauge* depth_gauge_ GUARDED_BY(mu_) = nullptr;
  std::size_t capacity_;
  std::size_t control_reserve_;
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace ntcs
