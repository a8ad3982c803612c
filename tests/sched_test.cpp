// sched_test.cpp — deterministic schedule exploration of the protocol
// core's known-dangerous interleaving trios (`ctest -L sched`).
//
// Each scenario is a small modeled protocol fragment built from the
// interposed primitives (ntcs::Mutex/CondVar, ntcs::Atomic, sched::Var),
// in two variants: the shipped logic (explored exhaustively within the
// budget — must report zero failures, zero races, zero rank inversions)
// and a seeded "reintroduce the historical bug" variant (the explorer
// must find the failing interleaving within the budget, shrink it, and
// the stored minimal replay in tests/replays/ must re-trigger it
// byte-for-byte).
//
// Historical bugs modeled:
//   * PR 6: TcpBackend::adopt_fd spawned the socket reader thread before
//     enqueueing the `opened` delivery — a fast peer's first frame could
//     overtake the open notification.
//   * PR 7: LcmSendWindow::grant_locked stopping at an expired front
//     waiter instead of sweeping past it — a live waiter behind it
//     starved (the window wedge).
//   * PR 8 (a): shard mint counters seeded at the common base instead of
//     base+shard — two shards mint the same UAdd.
//   * PR 8 (b): apply_replica_update not advancing the standby's mint
//     counter past replicated same-residue records — the first
//     post-promotion mint re-issues a live UAdd.
//   * PR 8 (c): a shard epoch bump that fails to purge the lease cache —
//     a lookup after failover serves a stale-epoch lease.
//   * Caller-runs dispatch: the last waiter to leave a port inbox skips
//     the pump wake — a delivery still queued waits for a timeout.
//
// Set NTCS_WRITE_REPLAYS=1 to regenerate the fixture files from a fresh
// exploration (they are checked in; regeneration is only needed when the
// scenarios or the explorer's decision ordering change).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/sched.h"
#include "common/annotated.h"
#include "common/atomic.h"
#include "core/nd/inbox.h"

namespace sc = ntcs::analysis::sched;
using ntcs::CondVar;
using ntcs::LockGuard;
using ntcs::Mutex;
using ntcs::UniqueLock;

namespace {

// `min_budget` lets a scenario whose (measured) schedule space is larger
// than the default budget still be explored to completion; the env
// override (NTCS_SCHED_BUDGET) can only widen it further.
sc::Options test_opts(long min_budget = 0) {
  sc::Options o = sc::Options::from_env();
  if (o.max_schedules < min_budget) o.max_schedules = min_budget;
  return o;
}

void log_cost(const char* name, const sc::Report& rep) {
  std::printf(
      "[sched-cost] %s: schedules=%ld steps=%ld failure-at=%ld "
      "shrink-runs=%ld minimal=%s\n",
      name, rep.schedules, rep.steps, rep.first_failure_schedule,
      rep.shrink_runs, rep.minimal.empty() ? "-" : rep.minimal.c_str());
}

// ---- PR 6: adopt_fd — `opened` delivery vs. reader-thread start ----------

constexpr int kOpened = 1;
constexpr int kData = 2;

void adopt_fd_scenario(bool bug) {
  struct St {
    Mutex mu{ntcs::lockrank::kRealnetInbox, "t.inbox"};
    CondVar cv;
    std::vector<int> events;
  };
  auto st = std::make_shared<St>();
  auto push = [st](int ev) {
    LockGuard lk(st->mu);
    st->events.push_back(ev);
    st->cv.notify_all();
  };
  sc::spawn([push, bug] {  // the acceptor adopting the connected fd
    if (bug) {
      // Seeded PR 6 bug: reader started before `opened` is enqueued —
      // its first delivery can overtake the open notification.
      sc::spawn([push] { push(kData); });
      push(kOpened);
    } else {
      push(kOpened);
      sc::spawn([push] { push(kData); });
    }
  });
  UniqueLock lk(st->mu);
  st->cv.wait(lk, [&] { return st->events.size() >= 2; });
  sc::check(st->events[0] == kOpened,
            "opened must precede first inbound frame");
}

// ---- PR 7: window grant vs. busy frame vs. expired-waiter sweep ----------

void window_scenario(bool bug) {
  struct Waiter {
    bool granted = false;
    bool expired = false;
  };
  struct St {
    Mutex mu{ntcs::lockrank::kLcmWindow, "t.window"};
    CondVar cv;
    // bound: 2 waiters in this fragment — the modeled window queue
    std::deque<Waiter*> queue;
    int in_flight = 1;  // the busy frame keeps the window full
    int depth = 1;
    Waiter a, b;
    bool a_enqueued = false;
    bool a_expired = false;
    bool b_enqueued = false;
    bool b_done = false;
  };
  auto st = std::make_shared<St>();
  auto grant_locked = [st, bug] {  // requires st->mu
    while (st->in_flight < st->depth && !st->queue.empty()) {
      Waiter* front = st->queue.front();
      if (front->expired) {
        if (bug) break;  // seeded PR 7 wedge: stop at the expired waiter
        st->queue.pop_front();  // shipped logic: sweep it, keep granting
        continue;
      }
      front->granted = true;
      st->queue.pop_front();
      ++st->in_flight;
      st->cv.notify_all();
    }
  };
  sc::spawn([st] {  // waiter A: its deadline passes while still queued
    UniqueLock lk(st->mu);
    st->queue.push_back(&st->a);
    st->a_enqueued = true;
    st->cv.notify_all();
    if (!st->cv.wait_for(lk, std::chrono::microseconds(1),
                         [&] { return st->a.granted; })) {
      st->a.expired = true;  // expired entry stays queued, as in the wedge
      st->a_expired = true;
      st->cv.notify_all();
    }
  });
  sc::spawn([st] {  // waiter B: live, FIFO-behind A
    UniqueLock lk(st->mu);
    st->cv.wait(lk, [&] { return st->a_enqueued; });
    st->queue.push_back(&st->b);
    st->b_enqueued = true;
    st->cv.notify_all();
    const bool ok = st->cv.wait_for(lk, std::chrono::milliseconds(1),
                                    [&] { return st->b.granted; });
    sc::check(ok && st->b.granted,
              "live waiter starved behind an expired one");
    st->b_done = true;
    st->cv.notify_all();
  });
  sc::spawn([st, grant_locked] {  // the busy frame completes; grants flow
    UniqueLock lk(st->mu);
    st->cv.wait(lk, [&] { return st->a_expired && st->b_enqueued; });
    --st->in_flight;
    grant_locked();
  });
  UniqueLock lk(st->mu);
  st->cv.wait(lk, [&] { return st->b_done; });
}

// ---- PR 8 (a): striped shard mint counters -------------------------------

void mint_stripe_scenario(bool bug) {
  constexpr int kBase = 1000;
  constexpr int kShards = 2;
  struct St {
    Mutex mu{ntcs::lockrank::kNameServerDb, "t.mintdb"};
    std::vector<int> minted;
  };
  auto st = std::make_shared<St>();
  for (int shard = 0; shard < kShards; ++shard) {
    sc::spawn([st, shard, bug] {
      // Seeded PR 8 bug (a): both shards' counters start at the common
      // base instead of base+shard — the residue classes collide.
      int next = bug ? kBase : kBase + shard;
      for (int i = 0; i < 2; ++i) {
        const int id = next;
        next += kShards;
        LockGuard lk(st->mu);
        for (int m : st->minted) {
          sc::check(m != id, "duplicate minted UAdd across shards");
        }
        st->minted.push_back(id);
      }
    });
  }
}

// ---- PR 8 (b): standby promotion vs. replica apply vs. mint --------------

void standby_mint_scenario(bool bug) {
  constexpr int kBase = 2000;
  constexpr int kShards = 2;
  constexpr int kShard = 0;
  struct St {
    Mutex mu{ntcs::lockrank::kNameServerDb, "t.repldb"};
    CondVar cv;
    // bound: 1 record in this fragment — the modeled replica stream
    std::deque<int> stream;
    std::vector<int> records;
    int standby_next = kBase + kShard;
    int applied = 0;
    bool promoted = false;
    bool primary_done = false;
  };
  auto st = std::make_shared<St>();
  sc::spawn([st] {  // primary: mints one UAdd, streams the record
    LockGuard lk(st->mu);
    st->stream.push_back(kBase + kShard);
    st->primary_done = true;
    st->cv.notify_all();
  });
  sc::spawn([st, bug] {  // standby: applies the replica stream
    UniqueLock lk(st->mu);
    st->cv.wait(lk, [&] { return !st->stream.empty(); });
    const int id = st->stream.front();
    st->stream.pop_front();
    st->records.push_back(id);
    // Seeded PR 8 bug (b): forget to advance the standby's mint counter
    // past a replicated record in its own residue class.
    if (!bug && id >= st->standby_next &&
        (id - kBase) % kShards == kShard) {
      st->standby_next = id + kShards;
    }
    ++st->applied;
    st->cv.notify_all();
  });
  sc::spawn([st] {  // promoter: flips the caught-up standby to primary
    UniqueLock lk(st->mu);
    st->cv.wait(lk, [&] { return st->primary_done && st->applied == 1; });
    st->promoted = true;
    st->cv.notify_all();
  });
  // Task 0: the first post-promotion mint on the new primary.
  UniqueLock lk(st->mu);
  st->cv.wait(lk, [&] { return st->promoted; });
  const int id = st->standby_next;
  st->standby_next += kShards;
  for (int m : st->records) {
    sc::check(m != id, "post-promotion mint re-used a replicated UAdd");
  }
  st->records.push_back(id);
}

// ---- PR 8 (c): lease invalidation vs. lookup vs. epoch bump --------------

void lease_scenario(bool bug) {
  struct Entry {
    int uadd = 0;
    int epoch = 0;
    bool present = false;
  };
  struct St {
    Mutex mu{ntcs::lockrank::kNspLease, "t.lease"};
    CondVar cv;
    Entry cache;
    int epoch = 1;
    bool installed = false;
  };
  auto st = std::make_shared<St>();
  sc::spawn([st] {  // resolver: installs a lease at the current epoch
    LockGuard lk(st->mu);
    st->cache = Entry{7, st->epoch, true};
    st->installed = true;
    st->cv.notify_all();
  });
  sc::spawn([st, bug] {  // primary failover bumps the shard epoch
    UniqueLock lk(st->mu);
    st->cv.wait(lk, [&] { return st->installed; });
    ++st->epoch;
    // Seeded PR 8 bug (c): the bump forgets to purge the shard's leases.
    if (!bug) st->cache.present = false;
  });
  // Task 0: a lookup that serves from the cache when an entry is present.
  UniqueLock lk(st->mu);
  st->cv.wait(lk, [&] { return st->installed; });
  if (st->cache.present) {
    sc::check(st->cache.epoch == st->epoch,
              "stale-epoch lease served after shard failover");
  }
}

// ---- caller-runs dispatch: the pump-role hand-off -------------------------
//
// A node's port inbox has two kinds of consumer: the pump, and threads
// waiting in await/receive that take the pump role while the pump is idle
// (core/nd/inbox.h). The fragment: a sender queues two deliveries of one
// channel; the pump and two waiters consume them, both waiters until the
// first has been processed. Every wait is untimed, so a lost wake-up is
// a deadlock, not a delay. The properties:
//   * every delivery is processed exactly once and in channel order, and
//     never two at once (processing touches plain state the race detector
//     watches — only the one-in-processing token orders those accesses);
//   * no waiter stays blocked once its predicate holds;
//   * no delivery stays queued after the last waiter leaves (the pump must
//     be woken for it).
// handoff_model mirrors PortInbox's rules in scenario-local state so the
// seeded bug — the leaving waiter skips the pump wake — can be planted;
// the shipped PortInbox itself runs the same fragment in
// inbox_handoff_scenario.

constexpr int kHandoffDeliveries = 2;
// Both waiters wait for the first delivery; the second must reach the pump.
constexpr int kHandoffTarget = 1;

/// What processing a delivery does, shared by both fragments: append it
/// to the channel's record (plain state), then publish the count the
/// waiters' predicates read.
struct HandoffSink {
  sc::Var<int> last{0, "handoff.last"};  // last delivery processed
  ntcs::Atomic<int> processed{0};

  void process(int d) {
    const int prev = last.load();
    sc::check(d == prev + 1, "delivery processed twice or out of order");
    last.store(d);
    processed.fetch_add(1);
  }
};

void handoff_model_scenario(bool bug) {
  struct St {
    Mutex mu{ntcs::lockrank::kSimnetEndpoint, "t.handoff.inbox"};
    CondVar pump_cv, waiter_cv;
    // bound: kHandoffDeliveries — the sender's whole stream
    std::deque<int> q;
    bool token_out = false;
    bool pump_idle = false;
    int waiters = 0;
    bool closed = false;
    HandoffSink sink;
    Mutex done_mu{ntcs::lockrank::kBlockingQueue, "t.handoff.done"};
    CondVar done_cv;
    int waiters_done = 0;
  };
  auto st = std::make_shared<St>();
  // Whoever makes a predicate true wakes the waiters (wake_waiters()).
  auto processed = [st](int d) {
    st->sink.process(d);
    { LockGuard lk(st->mu); }
    st->waiter_cv.notify_all();
    LockGuard dl(st->done_mu);
    st->done_cv.notify_all();
  };
  sc::spawn([st] {  // sender
    for (int d = 1; d <= kHandoffDeliveries; ++d) {
      LockGuard lk(st->mu);
      st->q.push_back(d);
      if (st->token_out) continue;
      if (st->pump_idle && st->waiters > 0) {
        st->waiter_cv.notify_one();
      } else {
        st->pump_cv.notify_one();
      }
    }
  });
  sc::spawn([st, processed] {  // pump
    UniqueLock lk(st->mu);
    for (;;) {
      const bool owned = st->pump_idle && st->waiters > 0;
      if (!st->q.empty() && !st->token_out && !owned) {
        const int d = st->q.front();
        st->q.pop_front();
        st->token_out = true;
        st->pump_idle = false;
        lk.unlock();
        processed(d);
        lk.lock();
        st->token_out = false;
        continue;
      }
      if (st->closed && st->q.empty()) return;
      if (st->q.empty()) st->pump_idle = true;
      st->pump_cv.wait(lk);
    }
  });
  for (int w = 0; w < 2; ++w) {
    sc::spawn([st, processed, bug] {  // waiter
      UniqueLock lk(st->mu);
      ++st->waiters;
      for (;;) {
        if (st->sink.processed.load() >= kHandoffTarget) break;
        if (!st->token_out && st->pump_idle && !st->q.empty()) {
          const int d = st->q.front();
          st->q.pop_front();
          st->token_out = true;
          lk.unlock();
          processed(d);
          lk.lock();
          st->token_out = false;
          continue;
        }
        st->waiter_cv.wait(lk);
      }
      if (--st->waiters > 0) {
        if (!st->q.empty()) st->waiter_cv.notify_all();
      } else if (!st->q.empty()) {
        // Seeded bug: the last waiter leaves without handing the queued
        // deliveries back to the pump.
        if (!bug) st->pump_cv.notify_one();
      }
      lk.unlock();
      LockGuard dl(st->done_mu);
      ++st->waiters_done;
      st->done_cv.notify_all();
    });
  }
  // Task 0: both waiters come back, then every delivery is processed —
  // neither may depend on a timeout — and only then the port closes.
  {
    UniqueLock dl(st->done_mu);
    st->done_cv.wait(dl, [&] {
      return st->waiters_done == 2 &&
             st->sink.processed.load() == kHandoffDeliveries;
    });
  }
  LockGuard lk(st->mu);
  st->closed = true;
  st->pump_cv.notify_all();
}

void inbox_handoff_scenario() {
  struct St {
    ntcs::core::PortInbox<int> inbox{ntcs::core::InboxConfig{
        ntcs::lockrank::kSimnetEndpoint, "t.port.inbox"}};
    HandoffSink sink;
    Mutex done_mu{ntcs::lockrank::kBlockingQueue, "t.port.done"};
    CondVar done_cv;
    int waiters_done = 0;
  };
  auto st = std::make_shared<St>();
  auto processed = [st](int d) {
    st->sink.process(d);
    st->inbox.wake_waiters();
    LockGuard dl(st->done_mu);
    st->done_cv.notify_all();
  };
  sc::spawn([st] {  // sender
    for (int d = 1; d <= kHandoffDeliveries; ++d) {
      (void)st->inbox.push(d, /*data=*/true);
    }
  });
  sc::spawn([st, processed] {  // pump
    for (;;) {
      auto d = st->inbox.pop(std::nullopt);
      if (!d) return;
      processed(d.value());
    }
  });
  for (int w = 0; w < 2; ++w) {
    sc::spawn([st, processed] {  // waiter
      const bool done = st->inbox.serve(
          [st] { return st->sink.processed.load() >= kHandoffTarget; },
          std::chrono::steady_clock::time_point::max(), processed);
      sc::check(done, "waiter did not finish");
      LockGuard dl(st->done_mu);
      ++st->waiters_done;
      st->done_cv.notify_all();
    });
  }
  {
    UniqueLock dl(st->done_mu);
    st->done_cv.wait(dl, [&] {
      return st->waiters_done == 2 &&
             st->sink.processed.load() == kHandoffDeliveries;
    });
  }
  st->inbox.close();
}

// ---- race-detector subjects ----------------------------------------------

void counter_scenario(bool locked) {
  struct St {
    Mutex mu;  // unranked test scaffolding
    sc::Var<int> n{0, "counter"};
  };
  auto st = std::make_shared<St>();
  for (int i = 0; i < 2; ++i) {
    sc::spawn([st, locked] {
      if (locked) {
        LockGuard lk(st->mu);
        st->n.store(st->n.load() + 1);
      } else {
        st->n.store(st->n.load() + 1);
      }
    });
  }
}

void publish_scenario(bool relaxed) {
  struct St {
    sc::Var<int> payload{0, "payload"};
    ntcs::Atomic<int> flag{0};
  };
  auto st = std::make_shared<St>();
  sc::spawn([st, relaxed] {
    st->payload.store(42);
    st->flag.store(1, relaxed ? std::memory_order_relaxed
                              : std::memory_order_release);
  });
  while (st->flag.load(relaxed ? std::memory_order_relaxed
                               : std::memory_order_acquire) == 0) {
    sc::yield();
  }
  sc::check(st->payload.load() == 42, "published payload must be visible");
}

void rank_scenario(bool bug) {
  struct St {
    Mutex a{ntcs::lockrank::kLcmState, "t.rank.a"};
    Mutex b{ntcs::lockrank::kNdState, "t.rank.b"};
  };
  auto st = std::make_shared<St>();
  sc::spawn([st] {
    LockGuard la(st->a);
    LockGuard lb(st->b);
  });
  sc::spawn([st, bug] {
    if (bug) {  // opposite order: the classic deadlock cycle half
      LockGuard lb(st->b);
      LockGuard la(st->a);
    } else {
      LockGuard la(st->a);
      LockGuard lb(st->b);
    }
  });
}

// ---- fixture plumbing -----------------------------------------------------

std::string replay_path(const char* name) {
  return std::string(NTCS_REPLAY_DIR) + "/" + name + ".sched";
}

// Explores the seeded-bug variant, asserts the bug is found within the
// budget and that its stored minimal replay re-triggers it byte-for-byte.
void expect_bug_found_and_replayable(const char* name,
                                     const std::function<void()>& scenario,
                                     const char* expected_failure) {
  sc::Report rep = sc::explore(scenario, test_opts());
  log_cost(name, rep);
  ASSERT_TRUE(rep.failed) << name << ": explorer missed the seeded bug";
  EXPECT_NE(rep.failure.find(expected_failure), std::string::npos)
      << rep.failure;
  ASSERT_FALSE(rep.minimal.empty());

  // The minimal schedule alone re-triggers the same failure.
  sc::Report rr = sc::replay(scenario, rep.minimal, test_opts());
  EXPECT_TRUE(rr.failed) << name << ": minimal replay did not fail";
  EXPECT_EQ(rr.failure, rep.failure);

  const std::string path = replay_path(name);
  if (std::getenv("NTCS_WRITE_REPLAYS") != nullptr) {
    ASSERT_TRUE(sc::save_replay_file(path, rep.minimal));
  }
  auto stored = sc::load_replay_file(path);
  ASSERT_TRUE(stored.has_value())
      << "missing fixture " << path
      << " (regenerate with NTCS_WRITE_REPLAYS=1)";
  // Byte-for-byte: the checked-in minimal token is exactly what a fresh
  // exploration + shrink produces today.
  EXPECT_EQ(*stored, rep.minimal) << "fixture " << path << " is stale";
  sc::Report fr = sc::replay(scenario, *stored, test_opts());
  EXPECT_TRUE(fr.failed) << name << ": stored replay did not fail";
  EXPECT_NE(fr.failure.find(expected_failure), std::string::npos)
      << fr.failure;
}

void expect_clean(const char* name, const std::function<void()>& scenario,
                  long min_budget = 0) {
  sc::Report rep = sc::explore(scenario, test_opts(min_budget));
  log_cost(name, rep);
  EXPECT_FALSE(rep.failed) << name << ": " << rep.failure << " schedule "
                           << rep.schedule;
  EXPECT_TRUE(rep.complete)
      << name << ": exploration budget too small (" << rep.schedules
      << " schedules)";
  EXPECT_EQ(rep.races, 0);
  EXPECT_EQ(rep.inversions, 0);
}

}  // namespace

TEST(SchedExplore, AdoptFdCleanOrderHolds) {
  expect_clean("adopt_fd_clean", [] { adopt_fd_scenario(false); });
}

TEST(SchedExplore, AdoptFdSeededBugFound) {
  expect_bug_found_and_replayable("adopt_fd_bug",
                                  [] { adopt_fd_scenario(true); },
                                  "opened must precede");
}

TEST(SchedExplore, WindowSweepCleanGrantsLiveWaiter) {
  // Four tasks contending one mutex + condvar: the clean space measures
  // ~48k schedules under preemption bound 2 — the one scenario whose
  // exhaustive proof needs more than the default budget.
  expect_clean("window_clean", [] { window_scenario(false); }, 80000);
}

TEST(SchedExplore, WindowSweepSeededWedgeFound) {
  expect_bug_found_and_replayable("window_bug", [] { window_scenario(true); },
                                  "live waiter starved");
}

TEST(SchedExplore, MintStripeCleanUnique) {
  expect_clean("mint_stripe_clean", [] { mint_stripe_scenario(false); });
}

TEST(SchedExplore, MintStripeSeededCollisionFound) {
  expect_bug_found_and_replayable("mint_stripe_bug",
                                  [] { mint_stripe_scenario(true); },
                                  "duplicate minted UAdd");
}

TEST(SchedExplore, StandbyMintCleanAdvancesCounter) {
  expect_clean("standby_mint_clean", [] { standby_mint_scenario(false); });
}

TEST(SchedExplore, StandbyMintSeededReuseFound) {
  expect_bug_found_and_replayable("standby_mint_bug",
                                  [] { standby_mint_scenario(true); },
                                  "re-used a replicated UAdd");
}

TEST(SchedExplore, LeaseEpochCleanNeverServesStale) {
  expect_clean("lease_clean", [] { lease_scenario(false); });
}

TEST(SchedExplore, LeaseEpochSeededStaleServeFound) {
  expect_bug_found_and_replayable("lease_bug", [] { lease_scenario(true); },
                                  "stale-epoch lease served");
}

TEST(SchedExplore, PumpHandoffCleanDrainsAndWakes) {
  // Five tasks on one inbox: the clean space measures ~32k schedules
  // under preemption bound 2.
  expect_clean("handoff_clean", [] { handoff_model_scenario(false); }, 60000);
}

TEST(SchedExplore, PumpHandoffSeededMissedPumpWakeFound) {
  expect_bug_found_and_replayable("handoff_bug",
                                  [] { handoff_model_scenario(true); },
                                  "deadlock");
}

TEST(SchedExplore, PortInboxHandoffClean) {
  // The shipped inbox has more schedule points: ~40k schedules.
  expect_clean("inbox_handoff_clean", [] { inbox_handoff_scenario(); },
               60000);
}

TEST(SchedRace, UnlockedCounterFlagged) {
  sc::Report rep = sc::explore([] { counter_scenario(false); }, test_opts());
  log_cost("counter_race", rep);
  ASSERT_TRUE(rep.failed);
  EXPECT_NE(rep.failure.find("happens-before race on counter"),
            std::string::npos)
      << rep.failure;
  EXPECT_GE(rep.races, 1);
}

TEST(SchedRace, LockedCounterClean) {
  expect_clean("counter_clean", [] { counter_scenario(true); });
}

TEST(SchedRace, RelaxedPublishFlagged) {
  sc::Report rep = sc::explore([] { publish_scenario(true); }, test_opts());
  log_cost("publish_race", rep);
  ASSERT_TRUE(rep.failed);
  EXPECT_NE(rep.failure.find("happens-before race on payload"),
            std::string::npos)
      << rep.failure;
}

TEST(SchedRace, ReleaseAcquirePublishClean) {
  expect_clean("publish_clean", [] { publish_scenario(false); });
}

TEST(SchedRank, InvertedOrderFlagged) {
  sc::Report rep = sc::explore([] { rank_scenario(true); }, test_opts());
  log_cost("rank_bug", rep);
  ASSERT_TRUE(rep.failed);
  // Either the validator flags the inversion or the explorer drives the
  // two tasks into the modeled deadlock the inversion makes possible —
  // both are the finding.
  EXPECT_TRUE(rep.failure.find("inversion") != std::string::npos ||
              rep.failure.find("deadlock") != std::string::npos)
      << rep.failure;
}

TEST(SchedRank, OrderedCleanNoInversion) {
  expect_clean("rank_clean", [] { rank_scenario(false); });
}

TEST(SchedReplay, TokenRoundTrip) {
  sc::ForcedSchedule f;
  f[12] = 1;
  f[30] = 0;
  f[41] = 2;
  const std::string tok = sc::format_token(f);
  EXPECT_EQ(tok, "v1:12@1,30@0,41@2");
  auto parsed = sc::parse_token(tok);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, f);
  EXPECT_EQ(sc::format_token(sc::ForcedSchedule{}), "v1:-");
  auto empty = sc::parse_token("v1:-");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
  EXPECT_FALSE(sc::parse_token("v2:1@1").has_value());
  EXPECT_FALSE(sc::parse_token("v1:5@1,3@0").has_value());  // unsorted
  EXPECT_FALSE(sc::parse_token("v1:x").has_value());
}

TEST(SchedReplay, DivergentTokenReportsCleanly) {
  // A forced switch to a task that is not enabled at that step must be a
  // contained, described failure — not UB or a hang.
  sc::Report rep = sc::replay([] { adopt_fd_scenario(false); }, "v1:0@7",
                              test_opts());
  ASSERT_TRUE(rep.failed);
  EXPECT_NE(rep.failure.find("replay divergence"), std::string::npos)
      << rep.failure;
}
