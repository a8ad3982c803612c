#include "simnet/backend.h"

namespace ntcs::simnet {

namespace {

core::IpcsDeliveryKind to_stdif(DeliveryKind k) {
  switch (k) {
    case DeliveryKind::opened:
      return core::IpcsDeliveryKind::opened;
    case DeliveryKind::data:
      return core::IpcsDeliveryKind::data;
    case DeliveryKind::closed:
      return core::IpcsDeliveryKind::closed;
  }
  return core::IpcsDeliveryKind::closed;
}

core::IpcsDelivery to_stdif(Delivery d) {
  core::IpcsDelivery out;
  out.kind = to_stdif(d.kind);
  out.chan = d.chan;
  out.payload = std::move(d.payload);
  out.peer_phys = std::move(d.peer_phys);
  return out;
}

}  // namespace

ntcs::Result<core::IpcsDelivery> SimnetPort::recv_for(
    std::chrono::nanoseconds timeout) {
  auto d = ep_->recv_for(timeout);
  if (!d) return d.error();
  return to_stdif(std::move(d.value()));
}

bool SimnetPort::serve(
    const std::function<bool()>& done,
    std::chrono::steady_clock::time_point deadline,
    const std::function<void(core::IpcsDelivery)>& handle) {
  return ep_->serve(done, deadline,
                    [&handle](Delivery d) { handle(to_stdif(std::move(d))); });
}

ntcs::Result<std::shared_ptr<core::IpcsPort>> SimnetBackend::bind(
    const std::string& local_name) {
  auto ep = fabric_.bind(machine_, kind_, local_name);
  if (!ep) return ep.error();
  return std::shared_ptr<core::IpcsPort>(
      std::make_shared<SimnetPort>(std::move(ep.value())));
}

}  // namespace ntcs::simnet
