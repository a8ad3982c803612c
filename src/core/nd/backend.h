// backend.h — the STD-IF: the uniform virtual-circuit interface between
// the ND-Layer and a native IPCS (paper §2.2).
//
// "All machine and network communication dependencies are localized
// [in the ND-Layer], providing a uniform virtual circuit interface
// (STD-IF) for the remainder of the NTCS."
//
// This header is that localization boundary made explicit: everything the
// Nucleus needs from a native IPCS is expressed as the two abstract
// classes below, and nothing above the ND-Layer may name a concrete
// substrate type (lint.sh enforces the include discipline). Two backends
// implement it:
//
//   * simnet  (src/simnet/backend.h)  — the simulated fabric: in-process
//     machines/networks with latency, partitions and fault injection.
//   * realnet (src/realnet/tcp_backend.h) — real loopback TCP sockets:
//     one OS listener per port, one OS connection per channel,
//     length-prefixed frames, `host:port` physical addresses.
//
// The contract a backend must honour (exercised by the backend-
// parameterized conformance suite in tests/nd_test.cpp and
// tests/integration_test.cpp):
//
//   * bind() creates the communication resource and yields a port whose
//     phys() other modules can connect() to.
//   * connect() to an address nobody is bound at fails with a retryable
//     error (Errc::refused / timeout / address_fault); a malformed
//     address fails with Errc::bad_argument (open() aborts its retry
//     loop only for bad_argument/unsupported).
//   * A successful connect() is surfaced to the acceptor as an `opened`
//     delivery; each gather-sent frame arrives exactly once as a `data`
//     delivery, in send order per channel (absent injected faults);
//     close_channel()/port teardown surfaces as `closed` at the peer.
//   * After close(), pending and future recv_for() calls fail with
//     Errc::closed; every OS resource (socket, fd, thread) is released.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/error.h"
#include "convert/machine.h"

namespace ntcs::core {

/// A backend channel id. Node-local; the ND-Layer uses it verbatim as the
/// LVC id.
using IpcsChannelId = std::uint64_t;

enum class IpcsDeliveryKind : std::uint8_t {
  opened,  // a peer connected; payload empty, peer_phys = connector address
  data,    // one message frame
  closed,  // the peer (or the substrate) closed this channel
};

/// One item received from the IPCS through the STD-IF.
struct IpcsDelivery {
  IpcsDeliveryKind kind = IpcsDeliveryKind::data;
  IpcsChannelId chan = 0;
  ntcs::Bytes payload;
  std::string peer_phys;  // set for `opened` (advisory; the ND open
                          // exchange supersedes it with the peer's own
                          // published address)
};

/// A bound communication resource — "a TCP/IP port, or an Apollo MBX
/// server mailbox" (§3.2). Thread-safe; obtained from
/// IpcsBackend::bind(); must not outlive its backend.
class IpcsPort {
 public:
  virtual ~IpcsPort() = default;

  /// The port's physical address, in the backend's native format.
  virtual std::string phys() const = 0;

  /// Largest frame send() accepts (the ND-Layer fragments above this).
  virtual std::size_t mtu() const = 0;

  /// Open a channel to another bound port. Synchronous; the callee
  /// learns of the connection via an `opened` delivery.
  virtual ntcs::Result<IpcsChannelId> connect(const std::string& dst_phys) = 0;

  /// Gather-send one frame given as header + body, concatenated by the
  /// backend directly into its transmit path (the zero-copy
  /// fragmentation exit — the caller never materialises the frame).
  virtual ntcs::Status send(IpcsChannelId chan, ntcs::BytesView header,
                            ntcs::BytesView body) = 0;

  /// Receive the next delivery, waiting at most `timeout`. Errors:
  /// Errc::timeout (nothing arrived), Errc::closed (port torn down).
  virtual ntcs::Result<IpcsDelivery> recv_for(
      std::chrono::nanoseconds timeout) = 0;

  /// Caller-runs dispatch: block the calling thread until `done()` holds
  /// or `deadline` passes, and while it waits run deliveries through
  /// `handle` whenever the pump role is free (core/nd/inbox.h has the
  /// rules). `done` is evaluated under the inbox lock: it may take no
  /// lock, or only locks ranked after the inbox's. recv_for() callers are
  /// the pump role; at most one delivery is in processing per port.
  /// Returns whether `done()` held; false when the deadline passed or the
  /// port closed first (the caller then waits some other way).
  virtual bool serve(const std::function<bool()>& done,
                         std::chrono::steady_clock::time_point deadline,
                         const std::function<void(IpcsDelivery)>& handle) = 0;

  /// Make every serve() waiter re-check its predicate. Call after making
  /// a predicate true; lock-free when nobody waits.
  virtual void wake_waiters() = 0;

  /// Close one channel; the peer gets a `closed` delivery.
  virtual ntcs::Status close_channel(IpcsChannelId chan) = 0;

  /// Unbind: all channels close (peers notified), pending receives drain
  /// then report Errc::closed. Idempotent.
  virtual void close() = 0;
};

/// One module's window onto a native IPCS: the factory for ports plus the
/// three environment facts the Nucleus needs from the machine it runs on
/// (architecture for the conversion layer, the local clock for the DRTS
/// time service, address liveness for the Name Server's purge check).
class IpcsBackend {
 public:
  virtual ~IpcsBackend() = default;

  /// Substrate name for logs/metrics/benches ("simnet.tcp", "simnet.mbx",
  /// "realnet.tcp").
  virtual std::string kind_name() const = 0;

  /// The local machine's data architecture (feeds Identity and the
  /// conversion layer's heterogeneity handling).
  virtual convert::Arch arch() const = 0;

  /// The local machine's clock (simnet: skewed virtual clock; realnet:
  /// the OS steady clock). Feeds the DRTS time service.
  virtual std::chrono::nanoseconds now() const = 0;

  /// Create the module's communication resource. `local_name` is
  /// advisory for TCP-like backends (a fresh port is assigned) and the
  /// mailbox pathname for MBX-like ones.
  virtual ntcs::Result<std::shared_ptr<IpcsPort>> bind(
      const std::string& local_name) = 0;

  /// Is anything currently bound at this physical address? (The OS-level
  /// liveness check the Name Server uses to decide whether an old
  /// address is "really inactive", §3.5.)
  virtual bool probe(const std::string& phys) = 0;
};

}  // namespace ntcs::core
