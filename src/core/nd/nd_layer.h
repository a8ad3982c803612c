// nd_layer.h — the Network Dependent Layer (paper §2.2).
//
// "The lowest layer in the NTCS is the Network Dependent Layer. All machine
// and network communication dependencies are localized here, providing a
// uniform virtual circuit interface (STD-IF) for the remainder of the NTCS.
// Everything above the ND-Layer is portable."
//
// Responsibilities:
//   * bind a native IPCS endpoint (TCP-like or MBX-like) and hide its
//     address format, MTU and error conventions behind the STD-IF;
//   * the channel-open protocol: exchange UAdd/architecture/physical
//     address with the peer on every new local virtual circuit (§3.3), and
//     cache the results;
//   * message fragmentation/reassembly over the IPCS frame size;
//   * retry on open — the only recovery the ND-Layer performs; every other
//     failure is "simply passed upward";
//   * TAdd bookkeeping on a per-channel basis (§3.4): a peer that
//     introduced itself with a TAdd is re-identified ("promoted") when its
//     real UAdd is learned.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/annotated.h"
#include "common/backoff.h"
#include "common/bytes.h"
#include "common/error.h"
#include "common/log.h"
#include "common/rng.h"
#include "convert/machine.h"
#include "core/addr.h"
#include "core/identity.h"
#include "core/nd/backend.h"
#include "core/wire/frames.h"

namespace ntcs::core {

/// A local virtual circuit id (node-local; equal to the underlying IPCS
/// channel id in this implementation).
using LvcId = IpcsChannelId;

/// What the ND-Layer reports upward to the IP-Layer.
struct NdEvent {
  enum class Kind : std::uint8_t {
    opened,   // a peer completed the open protocol toward us
    message,  // a reassembled payload message (an IP envelope)
    closed,   // the LVC died (peer close, module death, channel kill)
  };
  Kind kind;
  LvcId lvc = 0;
  // kind == message: the reassembled buffer, positioned past the ND
  // prologue (the IP-Layer decodes and relays it in place).
  wire::Framed message;

  /// The IP envelope (kind == message).
  ntcs::BytesView body() const { return message.view(); }
};

/// Cached per-peer information from the channel-open exchange.
struct PeerInfo {
  UAdd uadd;
  convert::Arch arch = convert::Arch::vax780;
  PhysAddr phys;
};

/// Tunables for the open retry loop. Retries back off exponentially with
/// jitter (a fixed delay synchronises retry storms and keeps losing the
/// same race against a flapping link); observable via `nd.open_retries`.
struct NdConfig {
  int open_attempts = 5;
  BackoffPolicy open_backoff{std::chrono::milliseconds(1),
                             std::chrono::milliseconds(32), 2.0, 0.5};
  std::chrono::nanoseconds open_ack_timeout{std::chrono::seconds(5)};
};

class NdLayer {
 public:
  NdLayer(IpcsBackend& backend, std::string local_name,
          std::shared_ptr<Identity> identity, NdConfig cfg = {});
  ~NdLayer();

  NdLayer(const NdLayer&) = delete;
  NdLayer& operator=(const NdLayer&) = delete;

  /// Create the IPCS communication resource. Must be called before any
  /// open/send and before the pump starts.
  ntcs::Status bind();

  /// The module's own physical address (valid after bind()).
  PhysAddr local_phys() const;

  /// Open an LVC to a physical address, running the open protocol
  /// (with retry-on-open). Blocking; never call from the pump thread.
  ntcs::Result<LvcId> open(const PhysAddr& dst);

  /// Send one message (fragmenting to the IPCS MTU). Thread-safe,
  /// non-blocking. Copies the envelope once; send_framed() does not.
  ntcs::Status send(LvcId lvc, ntcs::BytesView ip_envelope);
  /// Send the IP envelope at `ip_envelope.view()`, writing the ND prologue
  /// into its headroom: the frames are views of that one buffer.
  ntcs::Status send_framed(LvcId lvc, wire::Framed& ip_envelope);

  /// Close an LVC; the peer sees an NdEvent::closed.
  ntcs::Status close(LvcId lvc);

  /// Pump one IPCS delivery. Returns an event for the IP-Layer, or
  /// std::nullopt when the delivery was internal to the ND-Layer (open
  /// protocol, mid-message fragment). Errors: timeout, closed (endpoint
  /// gone — pump loop should exit). The caller holds the pump role: the
  /// delivery counts as in processing until its next pump() call.
  ntcs::Result<std::optional<NdEvent>> pump(std::chrono::nanoseconds timeout);

  /// Caller-runs dispatch (DESIGN.md §6): block until `done()` holds or
  /// `deadline` passes, and meanwhile process this module's deliveries on
  /// the calling thread whenever the pump is idle, handing each resulting
  /// event to `upcall` — the work the pump would otherwise wake up for.
  /// Deliveries run with the caller's trace context cleared, exactly as
  /// on the pump. `done` runs under the port's inbox lock (IpcsPort::serve).
  /// Returns whether `done()` held (false also when there is no port).
  bool serve(const std::function<bool()>& done,
                 std::chrono::steady_clock::time_point deadline,
                 const std::function<void(NdEvent)>& upcall);

  /// Make every serve() waiter re-check its predicate (IpcsPort).
  void wake_waiters();

  /// Peer info learned during the open exchange.
  std::optional<PeerInfo> peer(LvcId lvc) const;

  /// Replace a peer's TAdd with its real UAdd (§3.4 purge). No-op if the
  /// channel is gone.
  void promote_peer(LvcId lvc, UAdd real);

  /// UAdd -> physical address cache (fed by open exchanges, naming-service
  /// resolutions, and the well-known table).
  void cache_phys(UAdd uadd, PhysAddr phys);
  std::optional<PhysAddr> cached_phys(UAdd uadd) const;
  /// Drop a cache entry (it produced an address fault).
  void uncache_phys(UAdd uadd);

  /// Tear down the endpoint; the pump sees Errc::closed.
  void shutdown();

  IpcsBackend& backend() { return backend_; }

  /// Counters for tests/benches.
  struct Stats {
    std::uint64_t opens_initiated = 0;
    std::uint64_t open_retries = 0;
    std::uint64_t opens_accepted = 0;
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_received = 0;
    std::uint64_t lvcs_closed = 0;
    std::uint64_t tadds_promoted = 0;
    std::uint64_t frames_deduped = 0;   // duplicate/stale frames suppressed
    std::uint64_t frames_resynced = 0;  // reassembly resyncs after a gap
    // Frames sent as header+chunk gathers straight from the message buffer
    // — each one a per-fragment Bytes materialisation that no longer
    // happens.
    std::uint64_t frag_copies_avoided = 0;
    // Who processed this module's IPCS deliveries: the pump thread, or a
    // thread waiting in await/receive (caller-runs dispatch).
    std::uint64_t deliveries_by_pump = 0;
    std::uint64_t deliveries_by_waiter = 0;
  };
  Stats stats() const;

 private:
  /// Per-circuit transmit state: the lock serialises multi-fragment
  /// transmissions (a message's frames must stay contiguous on the circuit
  /// or the peer's reassembler would interleave concurrent senders'
  /// fragments), and `seq` is the running frame number stamped into each
  /// fragment word for the receiver's duplicate/overtake detection.
  struct TxState {
    // nd.tx: held across IpcsPort::send for a whole fragment train, so it
    // orders before the substrate locks and after nd.state.
    ntcs::Mutex mu{ntcs::lockrank::kNdTx, "nd.tx"};
    std::uint32_t seq GUARDED_BY(mu) = 0;
  };
  struct LvcState {
    PeerInfo peer;
    bool open_complete = false;
    bool initiated_by_us = false;
    wire::Reassembler reassembler;
    std::shared_ptr<TxState> tx = std::make_shared<TxState>();
  };
  struct OpenWaiter {
    // nd.open_wait: held across a whole open attempt, during which the
    // state lock is taken (twice) and stale channels are closed through
    // the backend — hence ranked before both.
    ntcs::Mutex mu{ntcs::lockrank::kNdOpenWait, "nd.open_wait"};
    ntcs::CondVar cv;
    std::optional<ntcs::Result<PeerInfo>> result GUARDED_BY(mu);
  };

  ntcs::Result<std::optional<NdEvent>> handle_delivery(IpcsDelivery d);
  ntcs::Result<std::optional<NdEvent>> handle_message(LvcId lvc,
                                                      wire::Framed msg);
  ntcs::Status send_raw(LvcId lvc, ntcs::BytesView nd_message);
  /// Fragment and transmit under the circuit's tx lock.
  ntcs::Status send_frames(LvcId lvc, TxState& tx, ntcs::BytesView nd_message);

  IpcsBackend& backend_;
  std::string local_name_;
  std::shared_ptr<Identity> identity_;
  NdConfig cfg_;
  ntcs::LayerLog log_;

  std::shared_ptr<IpcsPort> port_;

  // nd.state: ordered after lcm.state (the LCM-Layer seeds the phys cache
  // while holding its table lock) and before the substrate locks; never
  // held across IpcsPort::send/connect.
  mutable ntcs::Mutex mu_{ntcs::lockrank::kNdState, "nd.state"};
  ntcs::Rng rng_ GUARDED_BY(mu_);  // retry jitter
  std::unordered_map<LvcId, LvcState> lvcs_ GUARDED_BY(mu_);
  std::unordered_map<LvcId, std::shared_ptr<OpenWaiter>> open_waiters_
      GUARDED_BY(mu_);
  std::unordered_map<UAdd, PhysAddr> phys_cache_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
  // sync: relaxed per-node counters bumped outside nd.state on the send,
  // receive and dispatch hot paths; stats() folds them into Stats.
  std::atomic<std::uint64_t> frag_copies_avoided_{0};
  std::atomic<std::uint64_t> messages_received_{0};     // sync: as above
  std::atomic<std::uint64_t> deliveries_by_pump_{0};    // sync: as above
  std::atomic<std::uint64_t> deliveries_by_waiter_{0};  // sync: as above
};

}  // namespace ntcs::core
