// tcp_backend.h — the real-socket implementation of the STD-IF.
//
// Where simnet simulates an internetwork in-process, this backend binds
// actual OS loopback TCP sockets, so the portability claim of the paper —
// everything above the ND-Layer is substrate-independent — is exercised
// against a real IPCS with real frame boundaries to reassemble, real
// partial reads/writes, and real peer-death semantics (ECONNRESET / EOF).
//
// Shape (per port):
//   * one listening socket on 127.0.0.1 (ephemeral port, or a well-known
//     port from TcpConfig::fixed_ports for bootstrap), accepted by a
//     dedicated listener thread (woken for shutdown via a self-pipe);
//   * one OS TCP connection per channel, each drained by a dedicated
//     reader thread that reassembles length-prefixed frames
//     (4-byte big-endian length, then the payload) and enqueues
//     STD-IF deliveries into the port inbox;
//   * writes gather header+body with one sendmsg(MSG_NOSIGNAL) under a
//     per-channel tx lock (partial writes are completed in a loop).
//
// Lifecycle discipline (the FD-leak audit of this PR): a channel's socket
// is closed exactly once, by the reaper, strictly after its reader thread
// has been joined; close_channel()/close() only shutdown(2) the socket to
// wake the reader. The reaper runs on recv_for and at port close, so a
// port that cycles N channels holds O(live) fds, not O(N).
//
// Error vocabulary (the STD-IF contract, backend.h): ECONNREFUSED ->
// Errc::refused (retryable by ND's open loop), malformed address ->
// Errc::bad_argument (aborts the loop), connect timeout -> Errc::timeout,
// oversize frame -> Errc::too_big, everything else -> Errc::address_fault.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/annotated.h"
#include "core/nd/backend.h"
#include "core/nd/inbox.h"

namespace ntcs::realnet {

/// Environment knobs for a TCP backend. One TcpConfig is typically shared
/// by every node of a process (and, for multi-process runs, agreed across
/// processes so the well-known ports match).
struct TcpConfig {
  /// Interface to bind/connect on. Loopback only by design: the backend
  /// is a testbed substrate, not a hardened network service.
  std::string host = "127.0.0.1";
  /// Well-known ports by module local_name (bootstrap, §3.2): bind()
  /// binds these names to fixed ports so other processes can reach them
  /// by agreed address; unlisted names get an ephemeral port.
  std::unordered_map<std::string, std::uint16_t> fixed_ports;
  /// Architecture reported to the conversion layer. Every process on one
  /// host shares the real architecture, so heterogeneity does not arise
  /// over this backend; sun3 keeps identities stable across processes.
  convert::Arch arch = convert::Arch::sun3;
  /// connect(2) patience before Errc::timeout.
  std::chrono::nanoseconds connect_timeout{std::chrono::seconds(2)};
  /// Bound on the port inbox (deliveries). A reader thread whose data
  /// delivery finds the inbox full *blocks* until the consumer drains it —
  /// it stops reading its socket, the kernel buffers fill, and the remote
  /// sender's sendmsg stalls: real TCP back-pressure end to end instead of
  /// unbounded process memory. opened/closed deliveries bypass the bound
  /// (they are what unblocks consumers). 0 = unbounded.
  std::size_t inbox_capacity = 8192;
};

/// Largest frame a TcpPort accepts — matches simnet's TCP IPCS so the
/// ND-Layer fragments identically over both backends.
std::size_t tcp_mtu();

/// Format/parse `host:port` physical addresses.
std::string format_tcp_phys(const std::string& host, std::uint16_t port);
bool parse_tcp_phys(const std::string& phys, std::string& host,
                    std::uint16_t& port);

class TcpPort;

/// STD-IF backend over real loopback TCP. Thread-safe; must outlive its
/// ports.
class TcpBackend final : public core::IpcsBackend {
 public:
  explicit TcpBackend(TcpConfig cfg = {}) : cfg_(std::move(cfg)) {}

  std::string kind_name() const override { return "realnet.tcp"; }
  convert::Arch arch() const override { return cfg_.arch; }
  std::chrono::nanoseconds now() const override;

  ntcs::Result<std::shared_ptr<core::IpcsPort>> bind(
      const std::string& local_name) override;

  /// Liveness = a short real connect that is immediately closed. The
  /// probed port sees a transient opened/closed delivery pair for an
  /// unknown channel, which the ND-Layer ignores by design.
  bool probe(const std::string& phys) override;

  const TcpConfig& config() const { return cfg_; }

 private:
  TcpConfig cfg_;
};

/// One bound listening socket plus its channels. Created by
/// TcpBackend::bind().
class TcpPort final : public core::IpcsPort,
                      public std::enable_shared_from_this<TcpPort> {
 public:
  ~TcpPort() override;
  TcpPort(const TcpPort&) = delete;
  TcpPort& operator=(const TcpPort&) = delete;

  std::string phys() const override { return phys_; }
  std::size_t mtu() const override { return tcp_mtu(); }

  ntcs::Result<core::IpcsChannelId> connect(
      const std::string& dst_phys) override;
  ntcs::Status send(core::IpcsChannelId chan, ntcs::BytesView header,
                    ntcs::BytesView body) override;
  ntcs::Result<core::IpcsDelivery> recv_for(
      std::chrono::nanoseconds timeout) override;
  bool serve(
      const std::function<bool()>& done,
      std::chrono::steady_clock::time_point deadline,
      const std::function<void(core::IpcsDelivery)>& handle) override;
  void wake_waiters() override { inbox_.wake_waiters(); }
  ntcs::Status close_channel(core::IpcsChannelId chan) override;
  void close() override;

  /// Live (not yet reaped) channel count — leak tests.
  std::size_t channel_count() const;

 private:
  friend class TcpBackend;

  TcpPort(TcpConfig cfg, int listen_fd, int wake_rd, int wake_wr,
          std::string phys);

  /// Socket write state of one channel. Held by shared_ptr so a sender
  /// can gather-write outside the port lock; `fd` is guarded by the tx
  /// lock on the write side and is only ::close()d by the reaper after
  /// the reader thread is joined (fd < 0 once closed for writing).
  struct TxState {
    ntcs::Mutex mu{ntcs::lockrank::kRealnetTx, "realnet.tx"};
    int fd GUARDED_BY(mu) = -1;
  };
  struct ChannelState {
    int fd = -1;
    std::string peer_phys;
    std::shared_ptr<TxState> tx;
    std::thread reader;
    bool defunct = false;  // reader exited; ready for the reaper
  };

  void listener_main();
  void reader_main(core::IpcsChannelId chan, int fd);
  core::IpcsChannelId adopt_fd(int fd, const std::string& peer_phys,
                               bool announce);
  void enqueue(core::IpcsDelivery d);
  /// Join+close every defunct channel (and, with `all`, live ones too —
  /// port teardown). Must be called without mu_ held.
  void reap(bool all);

  TcpConfig cfg_;
  std::string phys_;
  int listen_fd_ = -1;
  int wake_rd_ = -1;  // self-pipe: close() wakes the listener's poll
  int wake_wr_ = -1;
  std::thread listener_;
  // sync: close() latches closing_ before waking the poll so the listener
  // and reader threads (kernel threads, outside the explorer's scope)
  // observe shutdown without taking port_mu_ in a signal-adjacent path;
  // closed_ makes close() idempotent.
  std::atomic<bool> closing_{false};  // sync: see block comment above
  std::atomic<bool> closed_{false};   // sync: close() idempotence latch

  // realnet.port: channel table; taken by connect/close/the listener/
  // reader exits, ordered before realnet.tx (send: table lookup then
  // socket write) and realnet.inbox.
  mutable ntcs::Mutex mu_{ntcs::lockrank::kRealnetPort, "realnet.port"};
  std::unordered_map<core::IpcsChannelId, ChannelState> channels_
      GUARDED_BY(mu_);
  core::IpcsChannelId next_chan_ GUARDED_BY(mu_) = 1;

  // realnet.inbox: strict leaf where reader threads meet the consumers
  // (recv_for, serve); a data delivery that finds it full blocks its
  // reader (TcpConfig::inbox_capacity).
  core::PortInbox<core::IpcsDelivery> inbox_;
};

}  // namespace ntcs::realnet
