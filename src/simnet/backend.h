// backend.h — the simnet implementation of the STD-IF.
//
// Adapts one (Fabric, MachineId, IpcsKind) triple to core::IpcsBackend so
// the Nucleus can run over the simulated internetwork without naming
// simnet types above the ND-Layer. The adapter is thin: Endpoint already
// has the STD-IF shape (it was the template for it), so SimnetPort just
// translates Delivery to IpcsDelivery; arch/now/probe forward to the
// fabric's per-machine state.
//
// This header is part of the simnet substrate and may only be included by
// simnet itself and the composition roots (core/testbed, tests, examples,
// benches) — lint.sh enforces the boundary.
#pragma once

#include <memory>
#include <string>

#include "core/nd/backend.h"
#include "simnet/endpoint.h"
#include "simnet/fabric.h"
#include "simnet/types.h"

namespace ntcs::simnet {

/// STD-IF view of one bound simnet Endpoint.
class SimnetPort final : public core::IpcsPort {
 public:
  explicit SimnetPort(std::shared_ptr<Endpoint> ep) : ep_(std::move(ep)) {}

  std::string phys() const override { return ep_->phys(); }
  std::size_t mtu() const override { return ipcs_mtu(ep_->kind()); }

  ntcs::Result<core::IpcsChannelId> connect(
      const std::string& dst_phys) override {
    return ep_->connect(dst_phys);
  }

  ntcs::Status send(core::IpcsChannelId chan, ntcs::BytesView header,
                    ntcs::BytesView body) override {
    return ep_->send(chan, header, body);
  }

  ntcs::Result<core::IpcsDelivery> recv_for(
      std::chrono::nanoseconds timeout) override;

  bool serve(
      const std::function<bool()>& done,
      std::chrono::steady_clock::time_point deadline,
      const std::function<void(core::IpcsDelivery)>& handle) override;

  void wake_waiters() override { ep_->wake_waiters(); }

  ntcs::Status close_channel(core::IpcsChannelId chan) override {
    return ep_->close_channel(chan);
  }

  void close() override { ep_->close(); }

  /// The underlying endpoint (simnet-aware tests only).
  const std::shared_ptr<Endpoint>& endpoint() const { return ep_; }

 private:
  std::shared_ptr<Endpoint> ep_;
};

/// STD-IF view of one machine's native IPCS on a simnet Fabric. Cheap to
/// construct; many backends may share one fabric (one per Node in
/// practice). Must not outlive the fabric.
class SimnetBackend final : public core::IpcsBackend {
 public:
  SimnetBackend(Fabric& fabric, MachineId machine, IpcsKind kind)
      : fabric_(fabric), machine_(machine), kind_(kind) {}

  std::string kind_name() const override {
    return std::string("simnet.").append(ipcs_kind_name(kind_));
  }
  convert::Arch arch() const override { return fabric_.machine_arch(machine_); }
  std::chrono::nanoseconds now() const override {
    return fabric_.machine_now(machine_);
  }

  ntcs::Result<std::shared_ptr<core::IpcsPort>> bind(
      const std::string& local_name) override;

  bool probe(const std::string& phys) override { return fabric_.probe(phys); }

  Fabric& fabric() { return fabric_; }
  MachineId machine() const { return machine_; }
  IpcsKind ipcs() const { return kind_; }

 private:
  Fabric& fabric_;
  MachineId machine_;
  IpcsKind kind_;
};

}  // namespace ntcs::simnet
