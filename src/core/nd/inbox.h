// inbox.h — the delivery inbox behind every STD-IF port, and the consumer
// protocol of caller-runs dispatch (DESIGN.md §6, "Who consumes a port").
//
// Both backends queue their deliveries here: the simnet Endpoint (due-time
// ordered; a full inbox sheds data like a lossy wire) and the realnet
// TcpPort (FIFO; a full inbox blocks the socket reader, which is TCP
// back-pressure). Two kinds of consumer take from it:
//
//   * the pump role — pop()/try_pop(), the node's dispatch loop;
//   * waiters — serve(): a thread about to block until its own predicate
//     holds (a reply ticket is ready, the application queue is non-empty)
//     runs deliveries itself while the pump is idle, instead of sleeping
//     while the pump wakes up to do them.
//
// The rules, all under the inbox lock:
//
//   * At most one delivery is in processing per inbox (the token). A
//     delivery's processing runs ND reassembly, IP and LCM upcalls; two of
//     them in flight at once could reorder a channel's frames or feed the
//     reassembler out of order. A waiter returns the token when its
//     delivery is done; the pump returns it on its next pop().
//   * A busy pump keeps the role: a pump that comes back from a delivery
//     to find more due takes them, waiters or not. A pump that finds
//     nothing due is idle; from then on, while a waiter is registered,
//     arrivals wake the waiter instead of the pump, and a waiter may take
//     any due delivery — also one the pump was woken for but has not
//     reached yet (it finds it gone and sleeps again).
//   * The last role-taking waiter to leave with deliveries still queued
//     wakes the pump; one leaving while others remain wakes them.
//   * A waiter's predicate is evaluated under the inbox lock, so it may
//     take no lock or only locks ranked after this one. Whoever makes a
//     predicate true calls wake_waiters() afterwards.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "common/annotated.h"
#include "common/atomic.h"
#include "common/error.h"
#include "common/metrics.h"
#include "core/nd/backend.h"

namespace ntcs::core {

struct InboxConfig {
  std::uint16_t rank = lockrank::kUnranked;
  const char* name = "inbox";
  /// Bound on queued data deliveries (opened/closed always queue).
  /// 0 = unbounded.
  std::size_t capacity = 0;
  /// At the bound: false sheds the data delivery (push reports shed),
  /// true blocks the producer until a consumer makes room or producers
  /// are released.
  bool block_when_full = false;
  /// Aggregate depth gauge (delta-based, shared by every inbox of one
  /// backend); may be null.
  metrics::Gauge* depth = nullptr;
  /// Bumped for every data delivery that meets a full inbox (shed or
  /// stalled); may be null.
  metrics::Counter* full = nullptr;
};

enum class PushResult : std::uint8_t { queued, shed, dropped };

template <typename D>
class PortInbox {
 public:
  using Clock = std::chrono::steady_clock;
  using Handler = std::function<void(D)>;

  explicit PortInbox(InboxConfig cfg) : cfg_(cfg), mu_(cfg.rank, cfg.name) {}

  ~PortInbox() {
    // Undrained deliveries die with the inbox; the aggregate depth gauge
    // must not keep counting them.
    ntcs::LockGuard lk(mu_);
    if (cfg_.depth != nullptr && !q_.empty()) {
      cfg_.depth->sub(static_cast<std::int64_t>(q_.size()));
    }
  }

  PortInbox(const PortInbox&) = delete;
  PortInbox& operator=(const PortInbox&) = delete;

  // ---- producers -----------------------------------------------------------

  /// Queue `d` in arrival order. `data` subjects it to the capacity bound.
  PushResult push(D d, bool data) {
    return push_at(std::move(d), Clock::time_point{}, 0, data);
  }

  /// Queue `d` to become due at `at`; equal due times order by `seq`
  /// (0 = after everything queued so far).
  PushResult push_at(D d, Clock::time_point at, std::uint64_t seq, bool data) {
    ntcs::UniqueLock lk(mu_);
    if (closed_) return PushResult::dropped;
    if (data && cfg_.capacity != 0 && q_.size() >= cfg_.capacity) {
      if (cfg_.full != nullptr) cfg_.full->inc();
      if (!cfg_.block_when_full) return PushResult::shed;
      space_cv_.wait(lk, [&] {
        return q_.size() < cfg_.capacity || closed_ || released_;
      });
    }
    if (closed_ || (data && released_)) return PushResult::dropped;
    q_.push(Item{at, seq != 0 ? seq : ++local_seq_, std::move(d)});
    if (cfg_.depth != nullptr) cfg_.depth->add(1);
    // Wake exactly one consumer, and only one that may take it: a waiter
    // when waiters own the role, otherwise the pump. Nobody when the
    // token is out — its holder looks again when it is done. The wake
    // goes out under the lock: the woken thread then waits for the
    // producer to let go instead of preempting it on its own CPU, which
    // in a request/reply loop would keep the requester from reaching its
    // own inbox before the reply does.
    if (token_ != Token::free) return PushResult::queued;
    if (waiters_owner_locked()) {
      waiter_cv_.notify_one();
    } else {
      pump_cv_.notify_one();
    }
    return PushResult::queued;
  }

  /// Release producers blocked on a full inbox and drop further data
  /// (port teardown: readers must exit before they are joined).
  void release_producers() {
    {
      ntcs::LockGuard lk(mu_);
      released_ = true;
    }
    space_cv_.notify_all();
  }

  /// Close: every consumer wakes; the pump drains what is queued, then
  /// pop() reports Errc::closed. Waiters return at once.
  void close() {
    {
      ntcs::LockGuard lk(mu_);
      closed_ = true;
    }
    pump_cv_.notify_all();
    waiter_cv_.notify_all();
    space_cv_.notify_all();
  }

  // ---- the pump role -------------------------------------------------------

  /// Take the next due delivery, waiting until `deadline` (forever when
  /// empty). Entering returns the token the pump took last time. Errors:
  /// Errc::timeout, Errc::closed (closed and drained).
  ntcs::Result<D> pop(std::optional<Clock::time_point> deadline) {
    ntcs::UniqueLock lk(mu_);
    if (token_ == Token::pump) token_ = Token::free;
    for (;;) {
      const auto now = Clock::now();
      const bool due = due_locked(now);
      if (due && token_ == Token::free && !waiters_owner_locked()) {
        return take_locked(Token::pump);
      }
      if (closed_ && q_.empty()) {
        return ntcs::Error(ntcs::Errc::closed, "port closed");
      }
      if (!due && !pump_idle_) {
        // Parked on an inbox with nothing due: the role passes to the
        // waiters, who must now watch the due times the pump will not.
        pump_idle_ = true;
        if (!q_.empty() && waiters_.load() > 0) waiter_cv_.notify_all();
      }
      if (due && token_ == Token::free) waiter_cv_.notify_one();
      if (deadline && *deadline <= now) {
        return ntcs::Error(ntcs::Errc::timeout, "no delivery");
      }
      // While waiters own the role the pump sleeps through due times: a
      // waiter takes those deliveries, and the last one out wakes it.
      std::optional<Clock::time_point> wake = deadline;
      if (!q_.empty() && !waiters_owner_locked() &&
          (!wake || q_.top().at < *wake)) {
        wake = q_.top().at;
      }
      if (wake) {
        pump_cv_.wait_until(lk, *wake);
      } else {
        pump_cv_.wait(lk);
      }
    }
  }

  /// Non-blocking pop() (pump role).
  std::optional<D> try_pop() {
    ntcs::LockGuard lk(mu_);
    if (token_ == Token::pump) token_ = Token::free;
    if (!due_locked(Clock::now()) || token_ != Token::free ||
        waiters_owner_locked()) {
      return std::nullopt;
    }
    return take_locked(Token::pump);
  }

  // ---- waiters -------------------------------------------------------------

  /// Block until `done()` holds (returns true) or `deadline`
  /// (time_point::max(): none) passes or the inbox closes (false), running
  /// deliveries through `handle` on the calling thread while it holds the
  /// role. `done` runs under the inbox lock (see the header comment).
  bool serve(const std::function<bool()>& done, Clock::time_point deadline,
             const Handler& handle) {
    ntcs::UniqueLock lk(mu_);
    waiters_.fetch_add(1);
    bool held = false;
    for (;;) {
      if (done()) {
        held = true;
        break;
      }
      if (closed_) break;
      const auto now = Clock::now();
      const bool mine = token_ == Token::free && pump_idle_;
      if (mine && due_locked(now)) {
        D d = take_locked(Token::waiter);
        lk.unlock();
        handle(std::move(d));
        lk.lock();
        token_ = Token::free;
        continue;
      }
      if (now >= deadline) break;
      auto wake = deadline;
      if (mine && !q_.empty() && q_.top().at < wake) wake = q_.top().at;
      if (wake == Clock::time_point::max()) {
        waiter_cv_.wait(lk);  // no deadline
      } else {
        waiter_cv_.wait_until(lk, wake);
      }
    }
    // Leaving: whatever is still queued must not wait for a timeout.
    if (waiters_.fetch_sub(1) > 1) {
      if (!q_.empty()) waiter_cv_.notify_all();
    } else if (!q_.empty()) {
      pump_cv_.notify_one();
    }
    return held;
  }

  /// Some waiter's predicate may have become true: make every waiter look.
  /// Lock-free when nobody waits.
  void wake_waiters() {
    if (waiters_.load() == 0) return;
    { ntcs::LockGuard lk(mu_); }  // orders against a waiter's check-then-wait
    waiter_cv_.notify_all();
  }

  // ---- inspection ----------------------------------------------------------

  bool closed() const {
    ntcs::LockGuard lk(mu_);
    return closed_;
  }

  /// Deliveries queued (including not-yet-due ones).
  std::size_t size() const {
    ntcs::LockGuard lk(mu_);
    return q_.size();
  }

 private:
  enum class Token : std::uint8_t { free, pump, waiter };

  struct Item {
    Clock::time_point at;
    std::uint64_t seq;
    D d;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      return a.at > b.at || (a.at == b.at && a.seq > b.seq);
    }
  };

  bool due_locked(Clock::time_point now) const REQUIRES(mu_) {
    return !q_.empty() && q_.top().at <= now;
  }

  /// Arrivals belong to the waiters: some are registered and the pump is
  /// idle.
  bool waiters_owner_locked() const REQUIRES(mu_) {
    return pump_idle_ && waiters_.load() > 0;
  }

  D take_locked(Token who) REQUIRES(mu_) {
    D d = std::move(const_cast<Item&>(q_.top()).d);
    q_.pop();
    token_ = who;
    if (who == Token::pump) pump_idle_ = false;
    if (cfg_.depth != nullptr) cfg_.depth->sub(1);
    if (cfg_.block_when_full) space_cv_.notify_one();
    return d;
  }

  const InboxConfig cfg_;
  mutable ntcs::Mutex mu_;
  ntcs::CondVar pump_cv_;    // the pump role: a delivery it may take
  ntcs::CondVar waiter_cv_;  // waiters: a delivery, a predicate, a leave
  ntcs::CondVar space_cv_;   // blocked producers: room, or release
  // bound: cfg_.capacity data deliveries (shed or producer blocks beyond);
  // opened/closed deliveries are exempt and bounded by channel churn.
  std::priority_queue<Item, std::vector<Item>, Later> q_ GUARDED_BY(mu_);
  std::uint64_t local_seq_ GUARDED_BY(mu_) = 0;
  Token token_ GUARDED_BY(mu_) = Token::free;
  bool pump_idle_ GUARDED_BY(mu_) = false;
  bool closed_ GUARDED_BY(mu_) = false;
  bool released_ GUARDED_BY(mu_) = false;
  // Registered waiters. Written under mu_; read without it by
  // wake_waiters() (seq_cst, pairing with the predicate's own store).
  ntcs::Atomic<int> waiters_{0};
};

}  // namespace ntcs::core
