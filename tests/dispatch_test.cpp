// Caller-runs dispatch (`ctest -L dispatch`): a thread blocked in
// LcmLayer::await or LcmLayer::receive processes its own node's deliveries
// while the pump is idle, instead of sleeping until the pump has done so.
//
// Every case runs over both backends (simnet and realnet loopback TCP),
// in the style of NdConformance: the consumer protocol lives in the port
// inbox both backends share (core/nd/inbox.h), so it must hold the same
// way over each. The deliveries_by_waiter / deliveries_by_pump counters
// (NdLayer::Stats) say who processed what.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/annotated.h"
#include "common/trace.h"
#include "core/testbed.h"

namespace ntcs::core {
namespace {

using namespace std::chrono_literals;
using convert::Arch;

std::string substrate_name(const ::testing::TestParamInfo<Substrate>& info) {
  return info.param == Substrate::simnet ? "simnet" : "realnet";
}

/// Name Server plus a client and a server module on one LAN. Both modules
/// run vax780 so payloads travel in image mode and echo byte for byte.
struct Rig {
  Testbed tb;
  std::unique_ptr<Node> cli;
  std::unique_ptr<Node> srv;
  UAdd srv_addr;

  explicit Rig(Substrate substrate) : tb(1, substrate) {
    tb.net("lan");
    tb.machine("ns-host", Arch::vax780, {"lan"});
    tb.machine("cli-host", Arch::vax780, {"lan"});
    tb.machine("srv-host", Arch::vax780, {"lan"});
    EXPECT_TRUE(tb.start_name_server("ns-host", "lan").ok());
    EXPECT_TRUE(tb.finalize().ok());
    cli = tb.spawn_module("cli", "cli-host", "lan").value();
    srv = tb.spawn_module("srv", "srv-host", "lan").value();
    srv_addr = cli->commod().locate("srv").value();
  }
  ~Rig() {
    if (cli) cli->stop();
    if (srv) srv->stop();
  }
};

/// The server's application loop: echo every request until stopped.
std::jthread echo_server(Node& srv) {
  return std::jthread([&srv](std::stop_token st) {
    while (!st.stop_requested()) {
      auto in = srv.lcm().receive(20ms);
      if (!in.ok() || !in.value().is_request) continue;
      (void)srv.lcm().reply(in.value().reply_ctx,
                            Payload::raw(std::move(in.value().payload)));
    }
  });
}

Bytes payload_for(std::size_t i, std::size_t n) {
  Bytes b(n);
  for (std::size_t k = 0; k < n; ++k) {
    b[k] = static_cast<std::uint8_t>((i * 131 + k * 7) & 0xff);
  }
  return b;
}

struct Taken {
  std::uint64_t pump = 0;
  std::uint64_t waiter = 0;
};

Taken taken_since(const NdLayer::Stats& before, const NdLayer::Stats& after) {
  return Taken{after.deliveries_by_pump - before.deliveries_by_pump,
               after.deliveries_by_waiter - before.deliveries_by_waiter};
}

void log_taken(const char* what, const Taken& cli, const Taken& srv) {
  std::printf("[dispatch] %s: client pump=%llu waiter=%llu, server pump=%llu "
              "waiter=%llu\n",
              what, static_cast<unsigned long long>(cli.pump),
              static_cast<unsigned long long>(cli.waiter),
              static_cast<unsigned long long>(srv.pump),
              static_cast<unsigned long long>(srv.waiter));
}

class CallerRuns : public ::testing::TestWithParam<Substrate> {};

INSTANTIATE_TEST_SUITE_P(Backends, CallerRuns,
                         ::testing::Values(Substrate::simnet,
                                           Substrate::realnet),
                         substrate_name);

TEST_P(CallerRuns, SerialEchoDeliveriesRunOnTheWaiters) {
  const std::uint64_t inversions_before = analysis::lock_inversions();
  Rig rig(GetParam());
  auto server = echo_server(*rig.srv);
  // Warm-up: open the circuit, settle both pumps into idleness and give
  // the OS scheduler time to place the four threads.
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(rig.cli->lcm().request(rig.srv_addr,
                                       Payload::raw(payload_for(i, 64)))
                    .ok());
  }
  const auto cli0 = rig.cli->nd().stats();
  const auto srv0 = rig.srv->nd().stats();
  constexpr int kOps = 500;
  for (int i = 0; i < kOps; ++i) {
    const Bytes sent = payload_for(i, 64);
    auto r = rig.cli->lcm().request(rig.srv_addr, Payload::raw(sent));
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    ASSERT_EQ(r.value().payload, sent);
  }
  const Taken cli = taken_since(cli0, rig.cli->nd().stats());
  const Taken srv = taken_since(srv0, rig.srv->nd().stats());
  log_taken("serial", cli, srv);
  // One reply per request reaches the client, one request the server.
  EXPECT_GE(cli.pump + cli.waiter, static_cast<std::uint64_t>(kOps));
  EXPECT_GE(srv.pump + srv.waiter, static_cast<std::uint64_t>(kOps));
  EXPECT_GE(cli.waiter * 10, (cli.pump + cli.waiter) * 9)
      << "client: pump " << cli.pump << " waiter " << cli.waiter;
  EXPECT_GE(srv.waiter * 10, (srv.pump + srv.waiter) * 9)
      << "server: pump " << srv.pump << " waiter " << srv.waiter;
  // Waiter predicates run under the inbox lock: nothing they take, nor
  // anything a waiter does while it holds the role, may invert the ranks.
  EXPECT_EQ(analysis::lock_inversions(), inversions_before);
  server.request_stop();
}

TEST_P(CallerRuns, PipelinedEchoKeepsThePumpBusy) {
  Rig rig(GetParam());
  auto server = echo_server(*rig.srv);
  ASSERT_TRUE(
      rig.cli->lcm().request(rig.srv_addr, Payload::raw(payload_for(0, 64)))
          .ok());
  const auto cli0 = rig.cli->nd().stats();
  const auto srv0 = rig.srv->nd().stats();
  constexpr std::size_t kDepth = 32;
  constexpr std::size_t kRounds = 8;
  for (std::size_t round = 0; round < kRounds; ++round) {
    std::vector<RequestTicket> tickets;
    std::vector<Bytes> sent;
    for (std::size_t i = 0; i < kDepth; ++i) {
      sent.push_back(payload_for(round * kDepth + i, 16384));
      auto t = rig.cli->lcm().request_async(rig.srv_addr,
                                            Payload::raw(sent.back()));
      ASSERT_TRUE(t.ok()) << t.error().to_string();
      tickets.push_back(std::move(t.value()));
    }
    for (std::size_t i = 0; i < kDepth; ++i) {
      auto r = rig.cli->lcm().await(tickets[i]);
      ASSERT_TRUE(r.ok()) << r.error().to_string();
      ASSERT_EQ(r.value().payload, sent[i]) << "round " << round << " #" << i;
    }
  }
  const Taken cli = taken_since(cli0, rig.cli->nd().stats());
  const Taken srv = taken_since(srv0, rig.srv->nd().stats());
  log_taken("pipelined", cli, srv);
  // With a window in flight the replies are the pump's: only a round's
  // last await, alone in flight, may run (its two frames) itself.
  EXPECT_GT(cli.pump, cli.waiter);
  EXPECT_LE(cli.waiter, 2u * kRounds);
  server.request_stop();
}

TEST_P(CallerRuns, ExpiredWaiterTimesOutAndThePumpTakesTheLateReply) {
  Rig rig(GetParam());
  std::atomic<bool> replied{false};
  std::jthread server([&] {
    auto in = rig.srv->lcm().receive(2s);
    ASSERT_TRUE(in.ok());
    std::this_thread::sleep_for(150ms);  // past the caller's deadline
    ASSERT_TRUE(rig.srv->lcm()
                    .reply(in.value().reply_ctx,
                           Payload::raw(std::move(in.value().payload)))
                    .ok());
    replied = true;
  });
  const auto before = rig.cli->nd().stats();
  SendOptions opts;
  opts.timeout = 50ms;
  auto r = rig.cli->lcm().request(rig.srv_addr,
                                  Payload::raw(payload_for(1, 64)), opts);
  EXPECT_EQ(r.code(), Errc::timeout);
  server.join();
  ASSERT_TRUE(replied);
  // Nobody waits any more, so the late reply is the pump's to process
  // (and to drop: its request is gone).
  const auto until = std::chrono::steady_clock::now() + 2s;
  while (rig.cli->nd().stats().deliveries_by_pump == before.deliveries_by_pump &&
         std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GT(rig.cli->nd().stats().deliveries_by_pump,
            before.deliveries_by_pump);
  // The circuit is still good.
  auto echo = echo_server(*rig.srv);
  auto ok = rig.cli->lcm().request(rig.srv_addr,
                                   Payload::raw(payload_for(2, 64)));
  ASSERT_TRUE(ok.ok()) << ok.error().to_string();
  EXPECT_EQ(ok.value().payload, payload_for(2, 64));
}

TEST_P(CallerRuns, StopWhileWaitingReturnsPromptly) {
  Rig rig(GetParam());
  // Open the circuit so the await below waits on a reply, not an open.
  ASSERT_TRUE(rig.cli->lcm()
                  .send(rig.srv_addr, Payload::raw(payload_for(0, 64)))
                  .ok());
  auto req = rig.cli->lcm().request_async(
      rig.srv_addr, Payload::raw(payload_for(1, 64)), SendOptions{false, 30s});
  ASSERT_TRUE(req.ok());
  std::atomic<bool> awaited{false};
  std::atomic<bool> received{false};
  Errc await_code = Errc::ok;
  Errc receive_code = Errc::ok;
  std::jthread awaiter([&] {
    await_code = rig.cli->lcm().await(req.value()).code();
    awaited = true;
  });
  std::jthread receiver([&] {
    receive_code = rig.cli->lcm().receive(30s).code();
    received = true;
  });
  std::this_thread::sleep_for(50ms);
  const auto t0 = std::chrono::steady_clock::now();
  rig.cli->stop();
  awaiter.join();
  receiver.join();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 2s);
  EXPECT_TRUE(awaited);
  EXPECT_TRUE(received);
  EXPECT_EQ(await_code, Errc::shutdown);
  EXPECT_EQ(receive_code, Errc::closed);
}

TEST_P(CallerRuns, WaiterRunsDeliveriesWithoutItsTraceContext) {
  Rig rig(GetParam());
  trace::clear_spans();
  trace::set_sampling(trace::SampleMode::always);
  const trace::TraceContext mine = trace::make_root();
  const auto before = rig.srv->nd().stats();
  std::atomic<bool> got{false};
  std::jthread receiver([&] {
    // A waiter with a live context of its own. The first message on a new
    // circuit makes it run the ND open exchange, whose acknowledgement it
    // sends — under this context, were it not cleared.
    trace::ContextScope scope(mine);
    auto in = rig.srv->lcm().receive(5s);
    got = in.ok();
  });
  std::this_thread::sleep_for(50ms);  // the receiver is parked as a waiter
  ASSERT_TRUE(rig.cli->lcm()
                  .send(rig.srv_addr, Payload::raw(payload_for(3, 64)))
                  .ok());
  receiver.join();
  trace::set_sampling(trace::SampleMode::off);
  EXPECT_TRUE(got);
  EXPECT_GT(rig.srv->nd().stats().deliveries_by_waiter,
            before.deliveries_by_waiter);
  EXPECT_TRUE(trace::spans_for_trace(mine.hi, mine.lo).empty());
  trace::clear_spans();
}

}  // namespace
}  // namespace ntcs::core
