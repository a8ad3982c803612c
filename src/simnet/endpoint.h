// endpoint.h — a bound IPCS communication endpoint.
//
// An endpoint is what a module gets from the native IPCS when it "creates
// any necessary communication resources (e.g., a TCP/IP port, or an Apollo
// MBX server mailbox)" (paper §3.2). It accepts incoming connections
// implicitly (like a server mailbox), carries message frames over
// channels, and reports peer death as a `closed` delivery — the raw
// material from which the ND-Layer builds its uniform STD-IF.
//
// The inbox delivers strictly by (due time, enqueue sequence). The fabric
// normally keeps a per-channel FIFO floor so frames on one channel arrive
// in send order; an installed FaultPlan injects faults purely by bending
// that schedule — a duplicate is a second item, a reordered frame is one
// whose due time was pushed past later frames. The endpoint itself never
// needs to know a fault plan exists.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <functional>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "common/error.h"
#include "core/nd/inbox.h"
#include "simnet/types.h"

namespace ntcs::simnet {

class Fabric;

enum class DeliveryKind : std::uint8_t {
  opened,  // a peer connected; payload empty, peer_phys = connector address
  data,    // one message frame
  closed,  // the peer (or the fabric) closed this channel
};

/// One item received from the IPCS.
struct Delivery {
  DeliveryKind kind = DeliveryKind::data;
  ChannelId chan = 0;
  ntcs::Bytes payload;
  std::string peer_phys;  // set for `opened`
};

/// A bound endpoint. Thread-safe. Obtained from Fabric::bind(); must not
/// outlive the Fabric. (enable_shared_from_this lets the fabric hold weak
/// references and pin the endpoint alive across delivery notifications.)
class Endpoint : public std::enable_shared_from_this<Endpoint> {
 public:
  ~Endpoint();
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  const std::string& phys() const { return phys_; }
  IpcsKind kind() const { return kind_; }
  MachineId machine() const { return machine_; }

  /// Open a channel to another bound endpoint. Synchronous; the callee
  /// learns of the connection via an `opened` delivery.
  ntcs::Result<ChannelId> connect(const std::string& dst_phys);

  /// Send one frame (at most ipcs_mtu(kind()) bytes) on an open channel.
  ntcs::Status send(ChannelId chan, ntcs::BytesView frame);

  /// Gather-send: one frame given as header + body, concatenated by the
  /// fabric directly into the delivery buffer. This is the zero-copy
  /// fragmentation path's exit — the caller never materialises the frame,
  /// so the only copy of the chunk bytes is the delivery itself.
  ntcs::Status send(ChannelId chan, ntcs::BytesView header,
                    ntcs::BytesView body);

  /// Blocking receive of the next delivery.
  ntcs::Result<Delivery> recv();

  /// Receive with a relative timeout.
  ntcs::Result<Delivery> recv_for(std::chrono::nanoseconds timeout);

  /// Non-blocking receive.
  std::optional<Delivery> try_recv();

  /// Caller-runs dispatch: the calling thread serves this inbox as a
  /// waiter (core::PortInbox::serve) until `done()` holds or `deadline`.
  bool serve(const std::function<bool()>& done,
                       std::chrono::steady_clock::time_point deadline,
                       const std::function<void(Delivery)>& handle);

  /// Make every serve() waiter re-check its predicate.
  void wake_waiters();

  /// Close one channel; the peer gets a `closed` delivery.
  ntcs::Status close_channel(ChannelId chan);

  /// Unbind: all channels close (peers notified), pending receives drain
  /// then report Errc::closed. Idempotent.
  void close();

  bool is_closed() const;

  /// Number of deliveries waiting (including not-yet-due ones).
  std::size_t pending() const;

 private:
  friend class Fabric;

  Endpoint(Fabric* fabric, MachineId machine, IpcsKind kind, std::string phys);

  struct Item {
    std::chrono::steady_clock::time_point at;
    std::uint64_t seq;
    Delivery d;
  };

  void enqueue(Item item);
  void close_inbox();
  ntcs::Result<Delivery> recv_until(
      std::optional<std::chrono::steady_clock::time_point> deadline);

  Fabric* fabric_;
  MachineId machine_;
  IpcsKind kind_;
  std::string phys_;

  // simnet.endpoint: below every Nucleus lock (the ND-Layer sends under
  // its tx lock); never nested with the fabric lock — the fabric always
  // releases its core lock before Endpoint::enqueue. Delivers strictly by
  // (due time, fabric sequence); beyond kInboxCapacity (endpoint.cpp)
  // data frames shed like wire loss.
  core::PortInbox<Delivery> inbox_;
};

}  // namespace ntcs::simnet
