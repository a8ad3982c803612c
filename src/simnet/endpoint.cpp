#include "simnet/endpoint.h"

#include "common/health.h"
#include "common/metrics.h"
#include "simnet/fabric.h"

namespace ntcs::simnet {

namespace {

// Bound on an endpoint's inbox. Simnet cannot exert real back-pressure
// (there is no kernel socket buffer behind it — delivery is a function
// call), so a full inbox sheds *data* frames exactly like a lossy wire:
// the receiver's reassembler observes the gap and re-synchronises, upper
// layers recover the same way they do from real frame loss. opened/closed
// control deliveries are never shed — channel lifecycle must stay exact.
constexpr std::size_t kInboxCapacity = 65536;

/// Health-plane pair: aggregate inbox depth across every simnet endpoint
/// in the process (delta-based), against the per-endpoint bound. Aggregate
/// vs per-endpoint bound overstates per-endpoint utilization only when the
/// hot endpoint is not the only one loaded — acceptable for a degraded
/// (not stalled) signal.
metrics::Gauge& inbox_depth_gauge() {
  static metrics::Gauge* g = [] {
    metrics::gauge("simnet.inbox.bound")
        .set(static_cast<std::int64_t>(kInboxCapacity));
    return &metrics::gauge("simnet.inbox.depth");
  }();
  return *g;
}

core::InboxConfig inbox_config() {
  static metrics::Counter& m_shed = metrics::counter("simnet.inbox_shed");
  core::InboxConfig c;
  c.rank = ntcs::lockrank::kSimnetEndpoint;
  c.name = "simnet.endpoint";
  c.capacity = kInboxCapacity;
  c.depth = &inbox_depth_gauge();
  c.full = &m_shed;
  return c;
}

}  // namespace

Endpoint::Endpoint(Fabric* fabric, MachineId machine, IpcsKind kind,
                   std::string phys)
    : fabric_(fabric),
      machine_(machine),
      kind_(kind),
      phys_(std::move(phys)),
      inbox_(inbox_config()) {}

Endpoint::~Endpoint() { close(); }

ntcs::Result<ChannelId> Endpoint::connect(const std::string& dst_phys) {
  if (is_closed()) return ntcs::Error(ntcs::Errc::closed, "endpoint closed");
  return fabric_->connect_impl(this, dst_phys);
}

ntcs::Status Endpoint::send(ChannelId chan, ntcs::BytesView frame) {
  if (is_closed()) return ntcs::Status(ntcs::Errc::closed, "endpoint closed");
  return fabric_->send_impl(this, chan, {}, frame);
}

ntcs::Status Endpoint::send(ChannelId chan, ntcs::BytesView header,
                            ntcs::BytesView body) {
  if (is_closed()) return ntcs::Status(ntcs::Errc::closed, "endpoint closed");
  return fabric_->send_impl(this, chan, header, body);
}

ntcs::Result<Delivery> Endpoint::recv() { return recv_until(std::nullopt); }

ntcs::Result<Delivery> Endpoint::recv_for(std::chrono::nanoseconds timeout) {
  return recv_until(std::chrono::steady_clock::now() + timeout);
}

ntcs::Result<Delivery> Endpoint::recv_until(
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  return inbox_.pop(deadline);
}

std::optional<Delivery> Endpoint::try_recv() { return inbox_.try_pop(); }

bool Endpoint::serve(const std::function<bool()>& done,
                               std::chrono::steady_clock::time_point deadline,
                               const std::function<void(Delivery)>& handle) {
  return inbox_.serve(done, deadline, handle);
}

void Endpoint::wake_waiters() { inbox_.wake_waiters(); }

ntcs::Status Endpoint::close_channel(ChannelId chan) {
  if (is_closed()) return ntcs::Status(ntcs::Errc::closed, "endpoint closed");
  return fabric_->close_channel_impl(this, chan);
}

void Endpoint::close() { fabric_->close_endpoint(this); }

bool Endpoint::is_closed() const { return inbox_.closed(); }

std::size_t Endpoint::pending() const { return inbox_.size(); }

void Endpoint::enqueue(Item item) {
  // opened/closed control deliveries are never shed — channel lifecycle
  // must stay exact.
  const bool data = item.d.kind == DeliveryKind::data;
  if (inbox_.push_at(std::move(item.d), item.at, item.seq, data) ==
      core::PushResult::shed) {
    health::journal_note(health::EventKind::shed, "simnet", "inbox_shed",
                         kInboxCapacity);
  }
}

void Endpoint::close_inbox() { inbox_.close(); }

}  // namespace ntcs::simnet
