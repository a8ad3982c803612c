// workloads.cpp — the four workloads, their timed phases, and the metrics
// derived from them.
//
// All load comes from this one process, from at most two caller threads,
// in closed loops: every NTCS caller waits for its reply before it issues
// the next request (a pipelined caller waits for the oldest of its window).
#include <algorithm>
#include <cstring>
#include <deque>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/testbed.h"
#include "drts/process_control.h"
#include "probes.h"
#include "realnet/tcp_backend.h"
#include "simnet/types.h"
#include "ursa/index.h"
#include "ursa/query.h"
#include "ursa/servers.h"

namespace perf {

namespace ntc = ntcs::core;
using namespace std::chrono_literals;

namespace {

constexpr std::size_t kSmall = 64;          // rpc_small / tcp_gw requests
constexpr std::size_t kBulk = 16 * 1024;    // stream_bulk / tcp_gw stream
constexpr std::size_t kUrsaProbeBytes = 1024;  // typical URSA reply
constexpr int kStreamWindow = 32;
constexpr int kTcpBulkWindow = 8;
constexpr int kPoolSlots = 2 * kStreamWindow;  // > any window: see window_caller
constexpr int kSegments = 5;  // untraced runs: rigs per run
constexpr std::size_t kMaxSlices = 20;  // latency slices per segment
constexpr std::size_t kSpanOps = 4000;  // traced operations given spans
constexpr std::size_t kUrsaDocs = 500;
constexpr std::uint64_t kCorpusSeed = 21;
constexpr std::size_t kTopTerms = 400;
// ursa_gw runs a fixed number of operations per client, so a faster build
// does the same work (and indexes the same documents) as a slower one:
// seconds x this rate, which is close to what one client completes per
// second on a 4-core x86 host.
constexpr double kUrsaOpsPerClientSecond = 1800;
constexpr auto kTimeout = 5s;
constexpr std::uint64_t kMaxFailuresPerCaller = 100;

ntcs::Bytes seeded_bytes(ntcs::Rng& rng, std::size_t n) {
  ntcs::Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
  return b;
}

void put_id(ntcs::Bytes& b, std::uint64_t id) {
  std::memcpy(b.data(), &id, sizeof(id));
}

std::uint64_t get_id(ntcs::BytesView b) {
  std::uint64_t id = 0;
  if (b.size() >= sizeof(id)) std::memcpy(&id, b.data(), sizeof(id));
  return id;
}

template <typename T>
T must(ntcs::Result<T> r, const std::string& what) {
  if (!r.ok()) throw std::runtime_error(what + ": " + r.error().to_string());
  return std::move(r.value());
}

void must(const ntcs::Status& st, const std::string& what) {
  if (!st.ok()) throw std::runtime_error(what + ": " + st.to_string());
}

// ---------------------------------------------------------------------------
// Echo server: answers every request with its own payload. While stamping
// it records when receive() returned and when reply() was entered and
// left, keyed by the operation ID in the first payload bytes.

class EchoServer {
 public:
  explicit EchoServer(ntc::Node& node) : node_(node) {
    thread_ = std::jthread([this](std::stop_token st) { loop(st); });
  }
  ~EchoServer() {
    thread_.request_stop();
    thread_.join();
  }
  EchoServer(const EchoServer&) = delete;
  EchoServer& operator=(const EchoServer&) = delete;

  void set_stamping(bool on) { stamping_.store(on); }
  std::vector<ServerStamp> take_stamps() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::move(stamps_);
  }

 private:
  void loop(const std::stop_token& st) {
    while (!st.stop_requested()) {
      auto in = node_.commod().receive(50ms);
      if (!in.ok() || !in.value().is_request) continue;
      if (!stamping_.load(std::memory_order_relaxed)) {
        (void)node_.commod().reply(in.value().reply_ctx, in.value().payload);
        continue;
      }
      ServerStamp s;
      s.recv_return = now_ns();
      s.id = get_id(in.value().payload);
      s.reply_entry = now_ns();
      (void)node_.commod().reply(in.value().reply_ctx, in.value().payload);
      s.reply_exit = now_ns();
      std::lock_guard<std::mutex> lk(mu_);
      stamps_.push_back(s);
    }
  }

  ntc::Node& node_;
  std::atomic<bool> stamping_{false};
  std::mutex mu_;
  std::vector<ServerStamp> stamps_;
  std::jthread thread_;
};

/// The first gateway's attachment on `net`: the first hop of every circuit
/// that leaves `net`, and so the peer of the ladder's ND rung.
ntc::PhysAddr gateway_phys(ntc::Testbed& tb, const std::string& net) {
  const ntc::PrimeGatewayInfo& gw = tb.well_known().prime_gateways.at(0);
  for (std::size_t i = 0; i < gw.networks.size(); ++i) {
    if (gw.networks[i] == net) return gw.phys.at(i);
  }
  throw std::runtime_error("no gateway attachment on " + net);
}

// ---------------------------------------------------------------------------
// Caller logs and the generic caller loops.

struct CallerLog {
  std::vector<OpRecord> ops;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // the first few failures
  std::int64_t cpu_ns = 0;            // this caller thread's CPU time

  void failure(const std::string& why) {
    ++failed;
    if (problems.size() < 5) problems.push_back(why);
  }
  bool gave_up() const { return failed >= kMaxFailuresPerCaller; }
};

/// Operation IDs: caller and phase in the top bits, a counter below.
std::uint64_t op_id(int phase, int caller, std::uint64_t n) {
  return (static_cast<std::uint64_t>(phase) << 56) |
         (static_cast<std::uint64_t>(caller + 1) << 48) | (n + 1);
}

/// One caller, synchronous requests of `size` bytes until `deadline`.
CallerLog sync_caller(ntc::Node& node, ntc::UAdd dst, std::size_t size,
                      std::uint64_t seed, int phase, int caller,
                      std::uint8_t kind, std::uint32_t bytes_credit,
                      std::int64_t deadline) {
  CallerLog log;
  ntcs::Rng rng(seed);
  std::vector<ntcs::Bytes> pool;
  for (int i = 0; i < 256; ++i) pool.push_back(seeded_bytes(rng, size));
  ntcs::Bytes msg(size);
  log.ops.reserve(1 << 18);
  const std::int64_t c0 = thread_cpu_ns();
  for (std::uint64_t n = 0; !log.gave_up(); ++n) {
    const ntcs::Bytes& src = pool[n % pool.size()];
    std::memcpy(msg.data(), src.data(), size);
    OpRecord rec;
    rec.id = op_id(phase, caller, n);
    put_id(msg, rec.id);
    rec.start = now_ns();
    if (rec.start >= deadline) break;
    auto rep = node.commod().request(dst, msg, kTimeout);
    rec.end = now_ns();
    ++log.attempted;
    if (!rep.ok()) {
      log.failure("request: " + rep.error().to_string());
      continue;
    }
    if (rep.value().payload != msg) {
      log.failure("echo mismatch on op " + std::to_string(rec.id));
      continue;
    }
    rec.kind = kind;
    rec.bytes = bytes_credit;
    log.ops.push_back(rec);
  }
  log.cpu_ns = thread_cpu_ns() - c0;
  return log;
}

/// One caller keeping `window` pipelined requests of `size` bytes in
/// flight until `deadline`, then draining. Payload slot i is rewritten
/// only when request i - kPoolSlots has been awaited, which the window
/// (< kPoolSlots) guarantees, so the slot still holds what was sent when
/// its reply is compared.
CallerLog window_caller(ntc::Node& node, ntc::UAdd dst, std::size_t size,
                        int window, std::uint64_t seed, int phase, int caller,
                        std::uint8_t kind, std::int64_t deadline) {
  CallerLog log;
  ntcs::Rng rng(seed);
  std::vector<ntcs::Bytes> pool;
  for (int i = 0; i < kPoolSlots; ++i) pool.push_back(seeded_bytes(rng, size));
  struct Inflight {
    ntc::RequestTicket ticket;
    OpRecord rec;
    std::size_t slot = 0;
  };
  std::deque<Inflight> q;
  log.ops.reserve(1 << 17);
  const std::int64_t c0 = thread_cpu_ns();
  std::uint64_t n = 0;
  bool issuing = true;
  for (;;) {
    while (issuing && static_cast<int>(q.size()) < window) {
      Inflight f;
      f.rec.start = now_ns();
      if (f.rec.start >= deadline || log.gave_up()) {
        issuing = false;
        break;
      }
      f.slot = n % pool.size();
      f.rec.id = op_id(phase, caller, n++);
      put_id(pool[f.slot], f.rec.id);
      auto t = node.commod().request_async(dst, pool[f.slot], kTimeout);
      f.rec.issue_end = now_ns();
      ++log.attempted;
      if (!t.ok()) {
        log.failure("request_async: " + t.error().to_string());
        continue;
      }
      f.ticket = std::move(t.value());
      q.push_back(std::move(f));
    }
    if (q.empty()) break;
    Inflight f = std::move(q.front());
    q.pop_front();
    f.rec.await_start = now_ns();
    auto rep = node.commod().await(f.ticket);
    f.rec.end = now_ns();
    if (!rep.ok()) {
      log.failure("await: " + rep.error().to_string());
      continue;
    }
    if (rep.value().payload != pool[f.slot]) {
      log.failure("echo mismatch on op " + std::to_string(f.rec.id));
      continue;
    }
    f.rec.kind = kind;
    f.rec.bytes = static_cast<std::uint32_t>(size);
    log.ops.push_back(f.rec);
  }
  log.cpu_ns = thread_cpu_ns() - c0;
  return log;
}

/// Run `bodies` on their own threads, released together; returns the
/// window [begin, end] and each body's log.
std::vector<CallerLog> run_threads(
    const std::vector<std::function<CallerLog(std::int64_t)>>& bodies,
    double seconds, std::int64_t& begin, std::int64_t& end) {
  std::vector<CallerLog> logs(bodies.size());
  std::latch go(1);
  std::int64_t deadline = 0;
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      threads.emplace_back([&, i] {
        go.wait();
        logs[i] = bodies[i](deadline);
      });
    }
    begin = now_ns();
    deadline = begin + static_cast<std::int64_t>(seconds * 1e9);
    go.count_down();
  }
  end = now_ns();
  return logs;
}

// ---------------------------------------------------------------------------
// Workload interface.

class Workload {
 public:
  virtual ~Workload() = default;
  /// Tear down the previous rig, if any (not part of setup time).
  virtual void teardown() = 0;
  /// Build the rig and warm it up: circuits, caches, corpus.
  virtual void build(std::uint64_t seed) = 0;
  /// Run the callers of one timed phase.
  virtual std::vector<CallerLog> run(double seconds, int phase,
                                     std::int64_t& begin,
                                     std::int64_t& end) = 0;
  /// Checks that need the whole phase (URSA search results).
  virtual void verify(std::vector<CallerLog>&) {}
  virtual void set_stamping(bool) {}
  virtual std::vector<ServerStamp> take_stamps() { return {}; }
  /// Layer probes of the traced run, after the timed phases.
  virtual void probes(std::uint64_t seed, Result& r) = 0;
  virtual void describe(Result& r) const = 0;
  /// Root span name of an operation of this kind.
  virtual const char* op_name(std::uint8_t kind) const = 0;

  int rpc_kind = 0;                 // the kind the rpc_* metrics cover
  std::uint32_t stream_kinds = 1;   // bit mask of kinds stream_MBps counts
  std::string primary;              // trace.overhead_pct compares this
  bool primary_higher_is_better = false;
  bool ursa_classes = false;        // kinds are search / fetch / add
  std::size_t payload = kSmall;     // probe payload size
};

// ---- rpc_small and stream_bulk: simnet, one network, no gateway ---------

class SimEcho final : public Workload {
 public:
  explicit SimEcho(bool bulk) : bulk_(bulk) {
    payload = bulk ? kBulk : kSmall;
    primary = bulk ? "stream_MBps" : "rpc_p50_us";
    primary_higher_is_better = bulk;
  }

  void teardown() override { rig_.reset(); }

  void build(std::uint64_t seed) override {
    seed_ = seed;
    rig_ = std::make_unique<Rig>(seed);
    Rig& g = *rig_;
    // Warm-up: open the circuit and warm the caches on both sides.
    ntcs::Rng rng(seed ^ 0x3a3);
    for (int i = 0; i < 200; ++i) {
      const ntcs::Bytes m = seeded_bytes(rng, payload);
      auto rep = g.cli->commod().request(g.dst, m, kTimeout);
      if (!rep.ok() || rep.value().payload != m) {
        throw std::runtime_error("warm-up request failed");
      }
    }
  }

  std::vector<CallerLog> run(double seconds, int phase, std::int64_t& begin,
                             std::int64_t& end) override {
    Rig& g = *rig_;
    const std::uint64_t s = seed_ * 1000003 + static_cast<std::uint64_t>(phase);
    std::function<CallerLog(std::int64_t)> body;
    if (bulk_) {
      body = [&g, s, phase](std::int64_t deadline) {
        return window_caller(*g.cli, g.dst, kBulk, kStreamWindow, s, phase, 0,
                             0, deadline);
      };
    } else {
      body = [&g, s, phase](std::int64_t deadline) {
        return sync_caller(*g.cli, g.dst, kSmall, s, phase, 0, 0, kSmall,
                           deadline);
      };
    }
    return run_threads({body}, seconds, begin, end);
  }

  void set_stamping(bool on) override { rig_->echo->set_stamping(on); }
  std::vector<ServerStamp> take_stamps() override {
    return rig_->echo->take_stamps();
  }

  void probes(std::uint64_t seed, Result& r) override {
    Rig& g = *rig_;
    LadderTarget t{g.cli.get(), g.dst, g.srv->phys(), "lan", g.srv->phys()};
    ladder_probe(t, payload, seed, r);
    wire_probe(payload, ntcs::simnet::ipcs_mtu(ntcs::simnet::IpcsKind::tcp),
               seed, r);
    convert_probe(seed, r);
    nsp_probe(g.tb, *g.cli, "echo", "m-srv", "lan", r);
    r.put("gw.hop_us", 0, "us");  // no gateway on this path
    r.put("ursa.eval_us", 0, "us");  // no URSA queries
  }

  const char* op_name(std::uint8_t) const override {
    return bulk_ ? "op.pipelined_request" : "op.request";
  }

  void describe(Result& r) const override {
    r.substrate["substrate"] = "simnet";
    r.substrate["topology"] = "one network, no gateway";
    r.substrate["conversion"] = "image (vax780 to vax780)";
    r.substrate["callers"] =
        bulk_ ? "1 caller, 32 pipelined 16 KiB requests" : "1 caller, 64 B sync";
  }

 private:
  struct Rig {
    ntc::Testbed tb;
    std::unique_ptr<ntc::Node> cli, srv;
    std::unique_ptr<EchoServer> echo;
    ntc::UAdd dst;

    explicit Rig(std::uint64_t seed) : tb(seed) {
      tb.net("lan");
      for (const char* m : {"m-ns", "m-cli", "m-srv"}) {
        tb.machine(m, ntcs::convert::Arch::vax780, {"lan"});
      }
      must(tb.start_name_server("m-ns", "lan"), "start name server");
      must(tb.finalize(), "finalize");
      cli = must(tb.spawn_module("client", "m-cli", "lan"), "spawn client");
      srv = must(tb.spawn_module("echo", "m-srv", "lan"), "spawn echo");
      echo = std::make_unique<EchoServer>(*srv);
      dst = must(cli->commod().locate("echo"), "locate echo");
    }
    ~Rig() {
      echo.reset();
      cli->stop();
      srv->stop();
    }
  };

  bool bulk_;
  std::uint64_t seed_ = 1;
  std::unique_ptr<Rig> rig_;
};

// ---- tcp_gw: realnet loopback, two networks and one gateway --------------

class TcpGw final : public Workload {
 public:
  TcpGw() {
    primary = "rpc_p50_us";
    stream_kinds = 1u << 1;
  }

  void teardown() override { rig_.reset(); }

  void build(std::uint64_t seed) override {
    seed_ = seed;
    rig_ = std::make_unique<Rig>(seed);
    Rig& g = *rig_;
    ntcs::Rng rng(seed ^ 0x7c9);
    for (int i = 0; i < 200; ++i) {
      const ntcs::Bytes small = seeded_bytes(rng, kSmall);
      const ntcs::Bytes big = seeded_bytes(rng, kBulk);
      auto a = g.cli->commod().request(g.dst, small, kTimeout);
      auto b = g.bulk->commod().request(g.bulk_dst, big, kTimeout);
      if (!a.ok() || a.value().payload != small || !b.ok() ||
          b.value().payload != big) {
        throw std::runtime_error("tcp warm-up request failed");
      }
    }
  }

  std::vector<CallerLog> run(double seconds, int phase, std::int64_t& begin,
                             std::int64_t& end) override {
    Rig& g = *rig_;
    const std::uint64_t s = seed_ * 1000003 + static_cast<std::uint64_t>(phase);
    return run_threads(
        {[&g, s, phase](std::int64_t deadline) {
           return sync_caller(*g.cli, g.dst, kSmall, s, phase, 0, 0, 0,
                              deadline);
         },
         [&g, s, phase](std::int64_t deadline) {
           return window_caller(*g.bulk, g.bulk_dst, kBulk, kTcpBulkWindow,
                                s ^ 0xb0b, phase, 1, 1, deadline);
         }},
        seconds, begin, end);
  }

  void set_stamping(bool on) override { rig_->echo->set_stamping(on); }
  std::vector<ServerStamp> take_stamps() override {
    return rig_->echo->take_stamps();
  }

  void probes(std::uint64_t seed, Result& r) override {
    Rig& g = *rig_;
    LadderTarget t{g.cli.get(), g.dst, g.srv->phys(), "net-1",
                   gateway_phys(g.tb, "net-0")};
    ladder_probe(t, payload, seed, r);
    wire_probe(payload, ntcs::realnet::tcp_mtu(), seed, r);
    convert_probe(seed, r);
    nsp_probe(g.tb, *g.cli, "echo", "m-srv", "net-1", r);
    gw_hop_probe(*g.cli, g.dst, g.near_dst, r);
    r.put("ursa.eval_us", 0, "us");  // no URSA queries
  }

  const char* op_name(std::uint8_t kind) const override {
    return kind == 0 ? "op.request" : "op.pipelined_request";
  }

  void describe(Result& r) const override {
    r.substrate["substrate"] = "realnet";
    r.substrate["link"] =
        "loopback TCP on one host (127.0.0.1), not a real network link";
    r.substrate["topology"] = "two networks, one gateway";
    r.substrate["callers"] =
        "1 caller 64 B sync + 1 caller 8 pipelined 16 KiB, same echo module";
  }

 private:
  struct Rig {
    ntc::Testbed tb;
    std::unique_ptr<ntc::Node> cli, bulk, srv, near;
    std::unique_ptr<EchoServer> echo, near_echo;
    ntc::UAdd dst, bulk_dst, near_dst;

    explicit Rig(std::uint64_t seed) : tb(seed, ntc::Substrate::realnet) {
      tb.net("net-0");
      tb.net("net-1");
      tb.machine("m-cli", ntcs::convert::Arch::vax780, {"net-0"});
      tb.machine("m-srv", ntcs::convert::Arch::vax780, {"net-1"});
      tb.machine("m-gw", ntcs::convert::Arch::vax780, {"net-0", "net-1"});
      must(tb.start_name_server("m-cli", "net-0"), "start name server");
      (void)must(tb.add_gateway("gw-0", "m-gw", {"net-0", "net-1"}),
                 "add gateway");
      must(tb.finalize(), "finalize");
      cli = must(tb.spawn_module("client", "m-cli", "net-0"), "spawn client");
      bulk = must(tb.spawn_module("bulk", "m-cli", "net-0"), "spawn bulk");
      srv = must(tb.spawn_module("echo", "m-srv", "net-1"), "spawn echo");
      near = must(tb.spawn_module("echo-near", "m-cli", "net-0"),
                  "spawn near echo");
      echo = std::make_unique<EchoServer>(*srv);
      near_echo = std::make_unique<EchoServer>(*near);
      dst = must(cli->commod().locate("echo"), "locate echo");
      bulk_dst = must(bulk->commod().locate("echo"), "locate echo (bulk)");
      near_dst = must(cli->commod().locate("echo-near"), "locate near echo");
    }
    ~Rig() {
      echo.reset();
      near_echo.reset();
      for (auto* n : {cli.get(), bulk.get(), srv.get(), near.get()}) n->stop();
    }
  };

  std::uint64_t seed_ = 1;
  std::unique_ptr<Rig> rig_;
};

// ---- ursa_gw: URSA across a gateway --------------------------------------

enum UrsaKind : std::uint8_t { kSearch = 0, kFetch = 1, kAdd = 2 };

struct UrsaOp {
  UrsaKind kind = kSearch;
  std::string query;  // kSearch
  std::uint64_t doc = 0;  // kFetch
  std::string title, text;  // kAdd
};

/// What a caller got back, per operation index, for the post-phase checks.
struct UrsaOutcome {
  bool done = false;
  std::vector<ursa::SearchHit> hits;  // kSearch
  ursa::Document doc;                  // kFetch
  std::uint64_t added = 0;             // kAdd
  std::int64_t start = 0, end = 0;
};

class UrsaGw final : public Workload {
 public:
  UrsaGw() {
    rpc_kind = kFetch;
    stream_kinds = 1u << kFetch;
    ursa_classes = true;
    primary = "query_p50_us";
    payload = kUrsaProbeBytes;
  }

  void teardown() override { rig_.reset(); }

  void build(std::uint64_t seed) override {
    seed_ = seed;
    rig_ = std::make_unique<Rig>();
    Rig& g = *rig_;
    // Warm-up: every client touches every backend (search first, so the
    // search server caches the corpus size before any document is added).
    for (int c = 0; c < 2; ++c) {
      const std::vector<UrsaOp> ops = sequence(seed ^ 0x5eed, 0, c, 30, true);
      for (std::size_t i = 0; i < ops.size(); ++i) {
        UrsaOutcome out;
        std::string err;
        if (!execute(*g.hosts[static_cast<std::size_t>(c)], ops[i], out, err) ||
            !check_now(ops[i], out)) {
          throw std::runtime_error("ursa warm-up op failed: " + err);
        }
        if (ops[i].kind == kAdd) apply_add(out.added, ops[i]);
      }
    }
  }

  std::vector<CallerLog> run(double seconds, int phase, std::int64_t& begin,
                             std::int64_t& end) override {
    Rig& g = *rig_;
    phase_ = phase;
    const std::size_t n = static_cast<std::size_t>(
        std::max(50.0, seconds * kUrsaOpsPerClientSecond));
    for (int c = 0; c < 2; ++c) {
      ops_[c] = sequence(seed_, phase, c, n);
      outcomes_[c].assign(n, UrsaOutcome{});
    }
    std::vector<std::function<CallerLog(std::int64_t)>> bodies;
    for (int c = 0; c < 2; ++c) {
      bodies.push_back([this, &g, c, phase](std::int64_t) {
        return client(*g.hosts[static_cast<std::size_t>(c)], phase, c);
      });
    }
    return run_threads(bodies, seconds, begin, end);
  }

  void verify(std::vector<CallerLog>& logs) override {
    // Adds become visible to searches in the order the index server
    // applied them. An add that completed before a search began is
    // certainly visible to it; one that overlapped the search may be
    // visible to any suffix of the search's term lookups (the search
    // server fetches postings term by term), so every such cut is tried.
    struct Add {
      std::int64_t start, end;
      std::uint64_t id;
      const UrsaOp* op;
    };
    std::vector<Add> adds;
    struct Search {
      int client;
      std::size_t index;
    };
    std::vector<Search> searches;
    for (int c = 0; c < 2; ++c) {
      for (std::size_t i = 0; i < ops_[c].size(); ++i) {
        const UrsaOutcome& o = outcomes_[c][i];
        if (!o.done) continue;
        if (ops_[c][i].kind == kAdd) {
          adds.push_back(Add{o.start, o.end, o.added, &ops_[c][i]});
        } else if (ops_[c][i].kind == kSearch) {
          searches.push_back(Search{c, i});
        }
      }
    }
    std::sort(adds.begin(), adds.end(),
              [](const Add& a, const Add& b) { return a.end < b.end; });
    std::sort(searches.begin(), searches.end(),
              [this](const Search& a, const Search& b) {
                return outcomes_[a.client][a.index].start <
                       outcomes_[b.client][b.index].start;
              });
    std::size_t applied = 0;
    for (const Search& s : searches) {
      const UrsaOutcome& o = outcomes_[s.client][s.index];
      while (applied < adds.size() && adds[applied].end < o.start) {
        apply_add(adds[applied].id, *adds[applied].op);
        ++applied;
      }
      std::vector<const Add*> maybe;
      for (std::size_t j = applied; j < adds.size(); ++j) {
        if (adds[j].start < o.end) maybe.push_back(&adds[j]);
      }
      std::vector<std::pair<std::uint64_t, const UrsaOp*>> pending;
      for (const Add* a : maybe) pending.emplace_back(a->id, a->op);
      if (!search_matches(ops_[s.client][s.index].query, pending, o.hits)) {
        CallerLog& log = logs[static_cast<std::size_t>(s.client)];
        log.failure("search result mismatch: \"" +
                    ops_[s.client][s.index].query + "\"");
        const std::uint64_t id = op_id(phase_, s.client, s.index);
        std::erase_if(log.ops, [id](const OpRecord& r) { return r.id == id; });
      }
    }
    for (; applied < adds.size(); ++applied) {
      apply_add(adds[applied].id, *adds[applied].op);
    }
  }

  void probes(std::uint64_t seed, Result& r) override {
    Rig& g = *rig_;
    LadderTarget t{g.host_nodes[0].get(), g.far_dst, g.far->phys(), "backend",
                   gateway_phys(g.tb, "office")};
    ladder_probe(t, payload, seed, r);
    wire_probe(payload, ntcs::simnet::ipcs_mtu(ntcs::simnet::IpcsKind::tcp),
               seed, r);
    convert_probe(seed, r);
    nsp_probe(g.tb, *g.host_nodes[0], "probe-far", "sun-be", "backend", r);
    gw_hop_probe(*g.host_nodes[0], g.far_dst, g.near_dst, r);
    // The application's own compute: the traced phase's queries evaluated
    // on the benchmark's local copy of the index.
    std::vector<double> eval;
    for (const UrsaOp& op : ops_[0]) {
      if (op.kind != kSearch) continue;
      const std::int64_t t0 = now_ns();
      const auto hits = local_eval(op.query, {}, {});
      const std::int64_t t1 = now_ns();
      r.spans.add("probe.ursa.eval", t0, t1);
      eval.push_back(static_cast<double>(t1 - t0) / 1e3);
      r.extra["ursa.eval_hits"] += static_cast<double>(hits.size());
    }
    r.put("ursa.eval_us", quantile(eval, 0.5), "us");
  }

  const char* op_name(std::uint8_t kind) const override {
    return kind == kSearch ? "op.ursa_search"
           : kind == kFetch ? "op.ursa_fetch"
                            : "op.ursa_add";
  }

  void describe(Result& r) const override {
    r.substrate["substrate"] = "simnet";
    r.substrate["topology"] =
        "office and backend networks joined by one gateway";
    r.substrate["conversion"] =
        "vax780 hosts, sun3 backends (URSA messages travel as raw bytes)";
    r.substrate["callers"] =
        "2 host clients, fixed sequences: ~70% search, ~25% fetch, ~5% add";
  }

 private:
  struct Rig {
    ntc::Testbed tb;
    ntcs::drts::ProcessController pc{tb};
    std::shared_ptr<ursa::Corpus> corpus;
    std::vector<std::unique_ptr<ntc::Node>> host_nodes;
    std::vector<std::unique_ptr<ursa::UrsaHost>> hosts;
    std::unique_ptr<ntc::Node> near, far;
    std::unique_ptr<EchoServer> near_echo, far_echo;
    ntc::UAdd near_dst, far_dst;
    ursa::InvertedIndex local;  // the benchmark's own copy of the index

    Rig() : tb(kCorpusSeed) {
      tb.net("office");
      tb.net("backend");
      tb.machine("vax-host", ntcs::convert::Arch::vax780, {"office"});
      tb.machine("gw", ntcs::convert::Arch::apollo_dn330,
                 {"office", "backend"});
      tb.machine("sun-be", ntcs::convert::Arch::sun3, {"backend"});
      must(tb.start_name_server("vax-host", "office"), "start name server");
      (void)must(tb.add_gateway("gw-1", "gw", {"office", "backend"}),
                 "add gateway");
      must(tb.finalize(), "finalize");
      ursa::UrsaPlacement pl{"sun-be", "backend", "sun-be",
                             "backend", "sun-be", "backend"};
      corpus = must(ursa::spawn_ursa(pc, pl, kUrsaDocs, kCorpusSeed),
                    "spawn ursa");
      local.add_corpus(*corpus);
      for (int c = 0; c < 2; ++c) {
        host_nodes.push_back(must(
            tb.spawn_module("host-" + std::to_string(c), "vax-host", "office"),
            "spawn host"));
        hosts.push_back(std::make_unique<ursa::UrsaHost>(*host_nodes.back()));
        must(hosts.back()->connect(), "connect host");
      }
      near = must(tb.spawn_module("probe-near", "vax-host", "office"),
                  "spawn near probe");
      far = must(tb.spawn_module("probe-far", "sun-be", "backend"),
                 "spawn far probe");
      near_echo = std::make_unique<EchoServer>(*near);
      far_echo = std::make_unique<EchoServer>(*far);
      near_dst = must(host_nodes[0]->commod().locate("probe-near"), "locate");
      far_dst = must(host_nodes[0]->commod().locate("probe-far"), "locate");
    }
    ~Rig() {
      near_echo.reset();
      far_echo.reset();
      near->stop();
      far->stop();
      for (auto& n : host_nodes) n->stop();
    }
  };

  /// Client c's fixed operation sequence for one phase. A warm-up
  /// sequence cycles search, fetch, add, so that every circuit a client
  /// uses is open before the timed window.
  std::vector<UrsaOp> sequence(std::uint64_t seed, int phase, int c,
                               std::size_t n, bool warm_up = false) const {
    const auto& vocab = rig_->corpus->vocabulary();
    const std::size_t top = std::min(kTopTerms, vocab.size());
    ntcs::Rng rng(seed * 7919 + static_cast<std::uint64_t>(phase) * 131 +
                  static_cast<std::uint64_t>(c));
    std::vector<UrsaOp> ops(n);
    for (std::size_t i = 0; i < n; ++i) {
      UrsaOp& op = ops[i];
      const double u = warm_up ? (i % 3 == 0   ? 0.0
                                  : i % 3 == 1 ? 0.8
                                               : 0.99)
                               : rng.next_double();
      // The first operation of every sequence is a search (see build()).
      if (i == 0 || u < 0.70) {
        op.kind = kSearch;
        const std::size_t terms = 1 + rng.next_below(3);
        std::vector<std::size_t> picked;
        while (picked.size() < terms) {
          const std::size_t t = rng.next_below(top);
          if (std::find(picked.begin(), picked.end(), t) == picked.end()) {
            picked.push_back(t);
          }
        }
        for (const std::size_t t : picked) {
          if (!op.query.empty()) op.query.push_back(' ');
          op.query += vocab[t];
        }
      } else if (u < 0.95) {
        op.kind = kFetch;
        op.doc = 1 + rng.next_below(rig_->corpus->size());
      } else {
        op.kind = kAdd;
        op.title = "note " + std::to_string(phase) + "-" + std::to_string(c) +
                   "-" + std::to_string(i);
        const std::size_t words = 40 + rng.next_below(40);
        for (std::size_t w = 0; w < words; ++w) {
          if (w != 0) op.text.push_back(' ');
          op.text += vocab[rng.next_below(top)];
        }
      }
    }
    return ops;
  }

  static bool execute(ursa::UrsaHost& host, const UrsaOp& op,
                      UrsaOutcome& out, std::string& err) {
    out.start = now_ns();
    bool ok = false;
    switch (op.kind) {
      case kSearch: {
        auto h = host.search(op.query, 10);
        if ((ok = h.ok())) {
          out.hits = std::move(h.value());
        } else {
          err = "search: " + h.error().to_string();
        }
        break;
      }
      case kFetch: {
        auto d = host.fetch(op.doc);
        if ((ok = d.ok())) {
          out.doc = std::move(d.value());
        } else {
          err = "fetch: " + d.error().to_string();
        }
        break;
      }
      case kAdd: {
        auto id = host.add_document(op.title, op.text);
        if ((ok = id.ok())) {
          out.added = id.value();
        } else {
          err = "add: " + id.error().to_string();
        }
        break;
      }
    }
    out.end = now_ns();
    out.done = ok;
    return ok;
  }

  /// Checks that need no other operation: fetched documents against the
  /// corpus, added IDs beyond it, and (warm-up only, where nothing runs
  /// concurrently) search hits against the local index.
  bool check_now(const UrsaOp& op, const UrsaOutcome& out) const {
    switch (op.kind) {
      case kFetch: {
        const ursa::Document* d = rig_->corpus->find(op.doc);
        return d != nullptr && out.doc.id == d->id &&
               out.doc.title == d->title && out.doc.text == d->text;
      }
      case kAdd:
        return out.added > rig_->corpus->size();
      case kSearch:
        return local_eval(op.query, {}, {}) == out.hits;
    }
    return false;
  }

  void apply_add(std::uint64_t id, const UrsaOp& op) {
    rig_->local.add_document(ursa::Document{id, op.title, op.text});
  }

  /// Evaluate `query` on the local index as the search server would, with
  /// pending add i visible to the terms from position cut[i] on.
  std::vector<ursa::SearchHit> local_eval(
      const std::string& query,
      const std::vector<std::pair<std::uint64_t, const UrsaOp*>>& pending,
      const std::vector<std::size_t>& cut) const {
    const ursa::Query q = ursa::parse_query(query);
    const std::vector<std::string> terms = q.distinct_terms();
    std::map<std::string, std::vector<ursa::Posting>> postings;
    for (std::size_t t = 0; t < terms.size(); ++t) {
      std::vector<ursa::Posting> list = rig_->local.postings(terms[t]);
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (cut[i] > t) continue;
        ursa::InvertedIndex one;
        one.add_document(ursa::Document{pending[i].first, pending[i].second->title,
                                        pending[i].second->text});
        for (const ursa::Posting& p : one.postings(terms[t])) {
          list.insert(std::upper_bound(list.begin(), list.end(), p,
                                       [](const ursa::Posting& a,
                                          const ursa::Posting& b) {
                                         return a.doc < b.doc;
                                       }),
                      p);
        }
      }
      postings[terms[t]] = std::move(list);
    }
    // The search server fetched the corpus size once, before any add.
    return ursa::evaluate_query(q, postings, rig_->corpus->size(), 10);
  }

  bool search_matches(
      const std::string& query,
      const std::vector<std::pair<std::uint64_t, const UrsaOp*>>& pending,
      const std::vector<ursa::SearchHit>& got) const {
    const std::size_t terms =
        ursa::parse_query(query).distinct_terms().size();
    std::vector<std::size_t> cut(pending.size(), 0);
    // Odometer over every cut vector in [0, terms]^pending.
    for (;;) {
      if (local_eval(query, pending, cut) == got) return true;
      std::size_t i = 0;
      while (i < cut.size() && ++cut[i] > terms) cut[i++] = 0;
      if (i == cut.size()) return false;
    }
  }

  CallerLog client(ursa::UrsaHost& host, int phase, int c) {
    CallerLog log;
    const std::vector<UrsaOp>& ops = ops_[c];
    std::vector<UrsaOutcome>& outs = outcomes_[c];
    log.ops.reserve(ops.size());
    const std::int64_t c0 = thread_cpu_ns();
    for (std::size_t i = 0; i < ops.size() && !log.gave_up(); ++i) {
      UrsaOutcome& out = outs[i];
      std::string err;
      ++log.attempted;
      if (!execute(host, ops[i], out, err)) {
        log.failure(err);
        continue;
      }
      if (ops[i].kind != kSearch && !check_now(ops[i], out)) {
        out.done = false;
        log.failure(ops[i].kind == kFetch ? "fetched document differs"
                                          : "add returned a corpus id");
        continue;
      }
      OpRecord rec;
      rec.id = op_id(phase, c, i);
      rec.start = out.start;
      rec.end = out.end;
      rec.kind = ops[i].kind;
      if (ops[i].kind == kFetch) {
        rec.bytes =
            static_cast<std::uint32_t>(out.doc.title.size() + out.doc.text.size());
      }
      log.ops.push_back(rec);
    }
    log.cpu_ns = thread_cpu_ns() - c0;
    return log;
  }

  std::uint64_t seed_ = 1;
  int phase_ = 0;
  std::unique_ptr<Rig> rig_;
  std::vector<UrsaOp> ops_[2];
  std::vector<UrsaOutcome> outcomes_[2];
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "rpc_small") return std::make_unique<SimEcho>(false);
  if (name == "stream_bulk") return std::make_unique<SimEcho>(true);
  if (name == "ursa_gw") return std::make_unique<UrsaGw>();
  if (name == "tcp_gw") return std::make_unique<TcpGw>();
  throw std::invalid_argument("unknown workload " + name);
}

// ---------------------------------------------------------------------------
// Timed phases and the metrics derived from them.

struct Phase {
  std::int64_t begin = 0, end = 0;
  std::int64_t cpu_ns = 0;
  std::vector<CallerLog> callers;
  std::vector<OpRecord> ops;  // all callers, merged
  std::vector<ServerStamp> stamps;
  Snap before, after;
  CtxSwitches ctx;
  AllocTotals alloc;
  double steal_pct = 0;  // host CPU stolen from this guest in the window

  double seconds() const { return static_cast<double>(end - begin) / 1e9; }
};

Phase run_phase(Workload& w, double seconds, int phase, bool traced,
                Result& r) {
  Phase ph;
  ph.before = snap();
  const CtxSwitches ctx0 = ctx_switches();
  const HostCpu host0 = host_cpu();
  if (traced) w.set_stamping(true);
  const AllocTotals a0 = alloc_totals();
  if (traced) set_alloc_counting(true);
  const std::int64_t cpu0 = process_cpu_ns();
  ph.callers = w.run(seconds, phase, ph.begin, ph.end);
  ph.cpu_ns = process_cpu_ns() - cpu0;
  set_alloc_counting(false);
  const AllocTotals a1 = alloc_totals();
  w.set_stamping(false);
  const CtxSwitches ctx1 = ctx_switches();
  const HostCpu host1 = host_cpu();
  ph.steal_pct = host1.total > host0.total
                     ? 100.0 * static_cast<double>(host1.steal - host0.steal) /
                           static_cast<double>(host1.total - host0.total)
                     : 0.0;
  ph.after = snap();
  ph.alloc = AllocTotals{a1.count - a0.count, a1.bytes - a0.bytes};
  ph.ctx = CtxSwitches{ctx1.voluntary - ctx0.voluntary,
                       ctx1.involuntary - ctx0.involuntary};
  ph.stamps = w.take_stamps();
  w.verify(ph.callers);
  for (CallerLog& c : ph.callers) {
    r.attempted += c.attempted;
    r.failed += c.failed;
    for (const std::string& p : c.problems) r.fail(p);
    ph.ops.insert(ph.ops.end(), c.ops.begin(), c.ops.end());
  }
  check_clean_regime(ph.before, ph.after,
                     "phase " + std::to_string(phase), r);
  return ph;
}

/// Quantile q of op latencies (µs), as the median over equal time slices
/// of the window, so a short stall of the host moves a few slices only.
/// Each slice is sized to hold about twice the samples q needs to have ten
/// beyond it, up to kMaxSlices slices; with fewer than three such slices
/// the quantile is taken over the whole window.
double sliced_quantile(const Phase& ph, const std::vector<const OpRecord*>& ops,
                       double q) {
  const std::size_t need = static_cast<std::size_t>(10.0 / (1.0 - q));
  const std::size_t n_slices =
      std::min<std::size_t>(kMaxSlices, ops.size() / (2 * need));
  std::vector<double> all;
  for (const OpRecord* o : ops) all.push_back(o->latency_us());
  if (n_slices < 3) return quantile(all, q);
  std::vector<std::vector<double>> slices(n_slices);
  const double span = static_cast<double>(std::max<std::int64_t>(
      1, ph.end - ph.begin));
  for (const OpRecord* o : ops) {
    const double pos = static_cast<double>(o->end - ph.begin) / span;
    const std::size_t i = std::min(
        n_slices - 1, static_cast<std::size_t>(std::max(0.0, pos) *
                                               static_cast<double>(n_slices)));
    slices[i].push_back(o->latency_us());
  }
  std::vector<double> per_slice;
  for (const auto& sl : slices) {
    if (sl.size() >= need) per_slice.push_back(quantile(sl, q));
  }
  return per_slice.size() >= 3 ? median(per_slice) : quantile(all, q);
}

void end_to_end_metrics(const Workload& w, const Phase& ph, Result& r) {
  std::vector<const OpRecord*> all, rpc;
  double stream_bytes = 0;
  for (const OpRecord& o : ph.ops) {
    all.push_back(&o);
    if (o.kind == w.rpc_kind) rpc.push_back(&o);
    if ((w.stream_kinds >> o.kind) & 1u) stream_bytes += o.bytes;
  }
  const double secs = ph.seconds();
  const double n = static_cast<double>(std::max<std::size_t>(1, all.size()));
  r.put("rpc_p50_us", sliced_quantile(ph, rpc, 0.50), "us");
  r.put("rpc_p90_us", sliced_quantile(ph, rpc, 0.90), "us");
  r.put("stream_MBps", stream_bytes / secs / 1e6, "MB/s");
  r.put("query_p50_us", sliced_quantile(ph, all, 0.50), "us");
  r.put("query_p99_us", sliced_quantile(ph, all, 0.99), "us");
  r.put("query_per_s", static_cast<double>(all.size()) / secs, "1/s");
  r.put("cpu_us_per_op", static_cast<double>(ph.cpu_ns) / 1e3 / n, "us");
  r.put("ops", static_cast<double>(all.size()), "count");
  r.put("window_s", secs, "s");
  // Artifact-only context for reading a slow segment.
  r.put("window.host_steal_pct", ph.steal_pct, "%");
  for (const char* c : {"realnet.inbox_stalls", "lcm.window_stalls",
                        "nd.msgs_sent", "ip.hops_forwarded"}) {
    r.put(std::string("window.") + c,
          static_cast<double>(ph.after.value(c) - ph.before.value(c)),
          "count");
  }
}

double p50_of(const std::vector<double>& v) { return quantile(v, 0.5); }

void per_layer_metrics(const Workload& w, const Phase& ph, Result& r) {
  const double n = static_cast<double>(std::max<std::size_t>(1, ph.ops.size()));
  const Snap d = ph.after.delta(ph.before);
  const auto per_op = [&](const char* counter) {
    return static_cast<double>(d.value(counter)) / n;
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };

  // Payload stamps: caller entry -> server receive() return -> reply()
  // entry -> caller return, matched by operation ID.
  std::unordered_map<std::uint64_t, const ServerStamp*> by_id;
  for (const ServerStamp& s : ph.stamps) by_id[s.id] = &s;
  std::vector<double> req_leg, handle, reply_call, reply_leg, issue, wait;
  double matched = 0, violations = 0, sum_err = 0;
  std::vector<double> by_kind[3];
  std::size_t spanned = 0;
  for (const OpRecord& o : ph.ops) {
    // Spans are kept for the first kSpanOps operations only; the metrics
    // use every operation.
    const bool keep = spanned++ < kSpanOps;
    const std::uint64_t root =
        keep ? r.spans.add(w.op_name(o.kind), o.start, o.end, 0, o.id) : 0;
    if (o.issue_end >= 0) {
      issue.push_back(static_cast<double>(o.issue_end - o.start) / 1e3);
      wait.push_back(static_cast<double>(o.end - o.await_start) / 1e3);
      if (keep) {
        r.spans.add("ali.request_async", o.start, o.issue_end, root, o.id);
        r.spans.add("ali.await", o.await_start, o.end, root, o.id);
      }
    }
    if (o.kind < 3) by_kind[o.kind].push_back(o.latency_us());
    const auto it = by_id.find(o.id);
    if (it == by_id.end()) continue;
    const ServerStamp& s = *it->second;
    ++matched;
    const std::int64_t a = s.recv_return - o.start;
    const std::int64_t b = s.reply_entry - s.recv_return;
    const std::int64_t c = s.reply_exit - s.reply_entry;
    const std::int64_t e = o.end - s.reply_entry;
    if (a < 0 || b < 0 || c < 0 || e < 0) ++violations;
    sum_err = std::max(sum_err, std::abs(static_cast<double>(
                                    (a + b + e) - (o.end - o.start))));
    req_leg.push_back(static_cast<double>(a) / 1e3);
    handle.push_back(static_cast<double>(b) / 1e3);
    reply_call.push_back(static_cast<double>(c) / 1e3);
    reply_leg.push_back(static_cast<double>(e) / 1e3);
    if (keep) {
      r.spans.add("leg.request", o.start, s.recv_return, root, o.id);
      r.spans.add("server.handle", s.recv_return, s.reply_entry, root, o.id);
      r.spans.add("ali.reply_call", s.reply_entry, s.reply_exit, root, o.id);
      r.spans.add("leg.reply", s.reply_entry, o.end, root, o.id);
    }
  }
  r.put("leg.request_us", p50_of(req_leg), "us");
  r.put("server.handle_us", p50_of(handle), "us");
  r.put("ali.reply_call_us", p50_of(reply_call), "us");
  r.put("leg.reply_us", p50_of(reply_leg), "us");
  r.extra["legs.matched"] = matched;
  r.extra["legs.causality_violations"] = violations;
  r.extra["legs.max_sum_error_ns"] = sum_err;
  r.put("ali.issue_us", p50_of(issue), "us");
  r.put("ali.await_us", p50_of(wait), "us");

  double caller_cpu = 0, payload_bytes = 0;
  for (const CallerLog& c : ph.callers) caller_cpu += static_cast<double>(c.cpu_ns);
  for (const OpRecord& o : ph.ops) payload_bytes += o.bytes;
  r.put("ali.caller_cpu_us", caller_cpu / 1e3 / n, "us");
  r.put("sched.vcsw_per_op", static_cast<double>(ph.ctx.voluntary) / n,
        "count");
  r.put("sched.ivcsw_per_op", static_cast<double>(ph.ctx.involuntary) / n,
        "count");
  r.put("host.steal_pct", ph.steal_pct, "%");
  r.put("alloc.count_per_op", static_cast<double>(ph.alloc.count) / n,
        "count");
  r.put("alloc.bytes_per_op", static_cast<double>(ph.alloc.bytes) / n, "B");
  r.put("alloc.bytes_per_payload_byte",
        ratio(static_cast<double>(ph.alloc.bytes), payload_bytes), "ratio");

  r.put("convert.packed_per_op", per_op("convert.mode.packed"), "count");
  r.put("convert.image_per_op", per_op("convert.mode.image"), "count");
  r.put("ip.hops_forwarded_per_op", per_op("ip.hops_forwarded"), "count");
  r.put("nsp.ns_requests_per_op", per_op("nsp.ns_requests"), "count");
  // Name and destination lookups happen in set-up, not in the steady
  // state: both hit ratios cover the process from start to the end of the
  // traced phase.
  const auto total_ratio = [&](const char* hit, const char* miss) {
    const double h = static_cast<double>(ph.after.value(hit));
    return ratio(h, h + static_cast<double>(ph.after.value(miss)));
  };
  r.put("nsp.cache_hit_ratio", total_ratio("nsp.cache_hits", "nsp.cache_misses"),
        "ratio");
  r.put("lcm.resolve_hit_ratio",
        total_ratio("lcm.resolve_hits", "lcm.resolve_misses"), "ratio");
  r.put("lcm.window_stalls_per_op", per_op("lcm.window_stalls"), "count");
  r.put("nd.msgs_sent_per_op", per_op("nd.msgs_sent"), "count");
  r.put("nd.frag_copies_avoided_per_op", per_op("nd.frag_copies_avoided"),
        "count");
  r.put("realnet.inbox_stalls", static_cast<double>(d.value("realnet.inbox_stalls")),
        "count");
  // Gauge peaks are high watermarks since process start (set-up included).
  for (const char* g : {"lcm.window.in_flight", "lcm.app_queue.depth",
                        "simnet.inbox.depth", "realnet.inbox.depth"}) {
    const ntcs::metrics::MetricValue* v = ph.after.find(g);
    r.put(std::string(g) + "_peak",
          v != nullptr ? static_cast<double>(v->gauge_peak) : 0.0, "count");
  }
  const auto hist_p50_us = [&](const char* name) {
    const ntcs::metrics::MetricValue* v = d.find(name);
    return v != nullptr ? v->percentile(0.5) / 1e3 : 0.0;
  };
  r.put("lcm.request_rtt_us", hist_p50_us("lcm.request_rtt_ns"), "us");
  r.put("ali.recv_wait_us", hist_p50_us("ali.recv_wait_ns"), "us");
  for (const char* c :
       {"lcm.shed", "lcm.busy_frames", "lcm.admission_rejects",
        "lcm.address_faults", "ip.ivcs_opened", "ip.relay_drops",
        "gw.fairness_drops", "simnet.inbox_shed", "analysis.lock_inversions",
        "trace.spans_dropped"}) {
    r.put(c, static_cast<double>(d.value(c)), "count");
  }
  // URSA operation classes; 0 on the workloads that run no URSA calls.
  const char* const classes[] = {"search", "fetch", "add"};
  for (std::uint8_t k = 0; k < 3; ++k) {
    const std::string base = std::string("ursa.") + classes[k];
    const std::vector<double> none;
    const std::vector<double>& v = w.ursa_classes ? by_kind[k] : none;
    r.put(base + "_p50_us", quantile(v, 0.5), "us");
    r.put(base + "_p99_us", quantile(v, 0.99), "us");
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"rpc_small", "stream_bulk",
                                                 "ursa_gw", "tcp_gw"};
  return names;
}

void run_workload(const Options& opts, std::int64_t process_start_ns,
                  Result& r) {
  // The program's own trace sampling stays off in every run.
  ntcs::trace::set_sampling(ntcs::trace::SampleMode::off);
  std::unique_ptr<Workload> w = make_workload(opts.workload);
  w->describe(r);

  if (!opts.trace) {
    // The window is split into segments, each on a freshly built rig, and
    // every metric is the median over segments: thread placement is drawn
    // anew with each rig, so one unlucky placement moves one segment only.
    // Each build is one set-up sample, the first timed from process start.
    std::map<std::string, std::vector<double>> seg;
    for (int k = 0; k < kSegments; ++k) {
      w->teardown();
      const std::int64_t t0 = k == 0 ? process_start_ns : now_ns();
      w->build(opts.seed);
      seg["setup_s"].push_back(static_cast<double>(now_ns() - t0) / 1e9);
      const Phase ph = run_phase(*w, opts.seconds / kSegments, k + 1, false, r);
      Result part;
      end_to_end_metrics(*w, ph, part);
      for (const auto& [name, m] : part.metrics) {
        seg[name].push_back(m.value);
        r.metrics[name].unit = m.unit;
      }
    }
    r.metrics["setup_s"].unit = "s";
    for (const auto& [name, values] : seg) {
      // A stall of the host lands in the tail first, and only ever makes a
      // segment slower: the tail percentiles report the lowest segment,
      // the program's own tail. Everything else is the segment median.
      const bool tail = name == "rpc_p90_us" || name == "query_p99_us";
      r.metrics[name].value =
          tail ? *std::min_element(values.begin(), values.end())
               : median(values);
      for (std::size_t k = 0; k < values.size(); ++k) {
        r.extra[name + "." + std::to_string(k)] = values[k];
      }
    }
  } else {
    // Half the time untraced, half traced, each on a fresh rig running the
    // same operation sequence: the same program and the same state both
    // times, so their difference is what the benchmark's tracing costs.
    w->build(opts.seed);
    Result untraced;
    const Phase a = run_phase(*w, opts.seconds / 2, 1, false, r);
    end_to_end_metrics(*w, a, untraced);
    w->teardown();
    w->build(opts.seed);
    const Phase b = run_phase(*w, opts.seconds / 2, 1, true, r);
    Result traced;
    end_to_end_metrics(*w, b, traced);
    const double ua = untraced.metrics[w->primary].value;
    const double tb = traced.metrics[w->primary].value;
    const double overhead =
        ua > 0 ? (w->primary_higher_is_better ? (ua - tb) / ua
                                              : (tb - ua) / ua) * 100
               : 0.0;
    r.put("trace.overhead_pct", overhead, "%");
    r.extra["trace.primary_untraced"] = ua;
    r.extra["trace.primary_traced"] = tb;
    for (const auto& [name, m] : untraced.metrics) {
      r.extra["untraced." + name] = m.value;
    }
    per_layer_metrics(*w, b, r);
    w->probes(opts.seed, r);
  }
  w->teardown();
}

}  // namespace perf
