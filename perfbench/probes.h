// probes.h — the traced run's layer probes.
//
// Each probe calls one layer's public functions directly, outside the
// timed window, at the workload's payload size, and reports per-call
// medians into the Result (and one span per probe batch).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common.h"
#include "core/testbed.h"

namespace perf {

/// Where the ladder sends: `dst` is the workload's destination module
/// (across the gateway on gateway workloads), `nd_peer` the first hop
/// towards it, which receives the ND rung's envelopes.
struct LadderTarget {
  ntcs::core::Node* node = nullptr;
  ntcs::core::UAdd dst;
  ntcs::core::PhysAddr dst_phys;
  ntcs::core::NetName dst_net;
  ntcs::core::PhysAddr nd_peer;
};

/// One-way sends through ND, IP, LCM and ALI (nd.send_us ... ali.self_us).
void ladder_probe(const LadderTarget& t, std::size_t payload,
                  std::uint64_t seed, Result& r);

/// The core/wire encode and decode chains, fragmentation and reassembly.
void wire_probe(std::size_t payload, std::size_t mtu, std::uint64_t seed,
                Result& r);

/// Packed-mode pack and unpack of a record the size of an URSA reply.
void convert_probe(std::uint64_t seed, Result& r);

/// ComMod::locate on a leased name and on freshly registered names.
/// Fresh modules are spawned on (machine, net) and stopped afterwards.
void nsp_probe(ntcs::core::Testbed& tb, ntcs::core::Node& client,
               const std::string& leased_name, const std::string& machine,
               const std::string& net, Result& r);

/// gw.hop_us: p50 of a 64 B request to `far` (through a gateway) minus
/// the same to `near` (on the caller's network), median of five rounds.
void gw_hop_probe(ntcs::core::Node& client, ntcs::core::UAdd far,
                  ntcs::core::UAdd near, Result& r);

}  // namespace perf
