// probes.cpp — layer probes of the traced run (see probes.h).
#include "probes.h"

#include <functional>
#include <map>
#include <memory>
#include <stdexcept>

#include "common/rng.h"
#include "convert/schema.h"
#include "core/wire/frames.h"

namespace perf {

namespace ntc = ntcs::core;
namespace wire = ntcs::core::wire;
using namespace std::chrono_literals;

namespace {

ntcs::Bytes seeded_bytes(std::uint64_t seed, std::size_t n) {
  ntcs::Rng rng(seed);
  ntcs::Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
  return b;
}

struct Dist {
  double p25 = 0, p50 = 0, p75 = 0;
};

Dist dist(const std::vector<double>& v) {
  return Dist{quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75)};
}

/// Time `call` in `batches` batches of `batch` calls; per-call wall and
/// thread-CPU microseconds, one sample per batch. One span per batch.
/// Returns false as soon as a call fails.
bool time_batches(const char* span, int batches, int batch,
                  const std::function<bool()>& call,
                  const std::function<void()>& between, Result& r,
                  std::vector<double>& wall, std::vector<double>& cpu) {
  for (int b = 0; b < batches; ++b) {
    const std::int64_t c0 = thread_cpu_ns();
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < batch; ++i) {
      if (!call()) return false;
    }
    const std::int64_t t1 = now_ns();
    const std::int64_t c1 = thread_cpu_ns();
    r.spans.add(span, t0, t1);
    wall.push_back(static_cast<double>(t1 - t0) / 1e3 / batch);
    cpu.push_back(static_cast<double>(c1 - c0) / 1e3 / batch);
    if (between) between();
  }
  return true;
}

void put_dist(Result& r, const std::string& name, const Dist& d) {
  r.put(name, d.p50, "us");
  r.extra[name + ".p25"] = d.p25;
  r.extra[name + ".p75"] = d.p75;
}

}  // namespace

void ladder_probe(const LadderTarget& t, std::size_t payload,
                  std::uint64_t seed, Result& r) {
  // Batches of one-way sends, each followed by a synchronous round trip
  // to the same module so the receiver drains before the next batch and
  // no queue bound is ever reached.
  constexpr int kBatches = 60;
  constexpr int kBatch = 16;
  ntc::Node& node = *t.node;
  const ntcs::Bytes body = seeded_bytes(seed ^ 0x1add3, payload);
  const ntcs::Bytes barrier_msg = seeded_bytes(seed ^ 0xba1, 64);
  const auto barrier = [&] {
    auto rep = node.commod().request(t.dst, barrier_msg, 5s);
    if (!rep.ok() || rep.value().payload != barrier_msg) {
      throw std::runtime_error("ladder barrier request failed");
    }
  };

  wire::LcmHeader hdr;
  hdr.kind = wire::LcmKind::data;
  hdr.src = node.identity().uadd();
  hdr.dst = t.dst;
  const ntcs::Bytes lcm_msg = wire::encode_lcm(hdr, body);
  // An IP data envelope for a circuit nobody knows: the peer's IP-Layer
  // drops it as stray, so the ND rung measures ND and the substrate only.
  const ntcs::Bytes stray = wire::encode_ip_data(~std::uint64_t{0} >> 1,
                                                 lcm_msg);

  auto lvc = node.nd().open(t.nd_peer);
  if (!lvc.ok()) throw std::runtime_error("ladder: nd open failed");
  ntc::ResolvedDest rd;
  rd.uadd = t.dst;
  rd.phys = t.dst_phys;
  rd.net = t.dst_net;
  auto ivc = node.ip().open_ivc(rd);
  if (!ivc.ok()) throw std::runtime_error("ladder: open_ivc failed");
  const ntc::Payload p = ntc::Payload::raw(body);

  struct Rung {
    const char* name;
    const char* span;
    std::function<bool()> call;
  };
  const Rung rungs[] = {
      {"nd", "probe.nd.send",
       [&] { return node.nd().send(lvc.value(), stray).ok(); }},
      {"ip", "probe.ip.send",
       [&] { return node.ip().send(ivc.value(), lcm_msg).ok(); }},
      {"lcm", "probe.lcm.send",
       [&] { return node.lcm().send(t.dst, p).ok(); }},
      {"ali", "probe.ali.send",
       [&] { return node.commod().send(t.dst, body).ok(); }},
  };
  std::map<std::string, double> wall_p50;
  for (const Rung& rung : rungs) {
    std::vector<double> wall, cpu, warm_w, warm_c;
    if (!time_batches("probe.warmup", 4, kBatch, rung.call, barrier, r,
                      warm_w, warm_c) ||
        !time_batches(rung.span, kBatches, kBatch, rung.call, barrier, r,
                      wall, cpu)) {
      throw std::runtime_error(std::string("ladder: ") + rung.name +
                               " send failed");
    }
    const Dist w = dist(wall);
    put_dist(r, std::string(rung.name) + ".send_us", w);
    r.put(std::string(rung.name) + ".send_cpu_us", quantile(cpu, 0.5), "us");
    wall_p50[rung.name] = w.p50;
  }
  (void)node.ip().close_ivc(ivc.value());
  (void)node.nd().close(lvc.value());
  r.put("ali.self_us", wall_p50["ali"] - wall_p50["lcm"], "us");
  r.put("lcm.self_us", wall_p50["lcm"] - wall_p50["ip"], "us");
  r.put("ip.self_us", wall_p50["ip"] - wall_p50["nd"], "us");
  r.put("nd.self_us", wall_p50["nd"], "us");
}

void wire_probe(std::size_t payload, std::size_t mtu, std::uint64_t seed,
                Result& r) {
  constexpr int kBatches = 200;
  constexpr int kBatch = 16;
  const ntcs::Bytes body = seeded_bytes(seed ^ 0x71e, payload);
  wire::LcmHeader hdr;
  hdr.kind = wire::LcmKind::request;
  hdr.src = ntc::UAdd::permanent(0x1234);
  hdr.dst = ntc::UAdd::permanent(0x5678);
  hdr.req_id = 7;
  const ntcs::Bytes nd_msg = wire::encode_nd_payload(
      wire::encode_ip_data(42, wire::encode_lcm(hdr, body)));
  const std::vector<ntcs::Bytes> frames = wire::fragment(nd_msg, mtu);

  std::size_t sink = 0;
  std::uint32_t seq = 0;
  const auto encode = [&] {
    sink += wire::encode_nd_payload(
                wire::encode_ip_data(42, wire::encode_lcm(hdr, body)))
                .size();
    return true;
  };
  const auto decode = [&] {
    auto nd = wire::decode_nd(nd_msg);
    if (!nd.ok()) return false;
    auto ip = wire::decode_ip(nd.value().body);
    if (!ip.ok()) return false;
    auto lcm = wire::decode_lcm(ip.value().body);
    if (!lcm.ok() || lcm.value().payload != body) return false;
    sink += lcm.value().payload.size();
    return true;
  };
  const auto frag = [&] {
    sink += wire::fragment_spans(nd_msg, mtu, seq).size();
    return true;
  };
  const auto reassemble = [&] {
    // A fresh reassembler per message: it tracks frame sequence numbers,
    // and every message here is fragmented from sequence 0.
    wire::Reassembler ra;
    for (const ntcs::Bytes& f : frames) {
      auto res = ra.feed(f);
      if (!res.ok()) return false;
      if (res.value().complete) sink += ra.take().size();
    }
    return true;
  };
  struct Stage {
    const char* name;
    const char* span;
    std::function<bool()> call;
  };
  const Stage stages[] = {
      {"wire.encode_us", "probe.wire.encode", encode},
      {"wire.decode_us", "probe.wire.decode", decode},
      {"wire.fragment_us", "probe.wire.fragment", frag},
      {"wire.reassemble_us", "probe.wire.reassemble", reassemble},
  };
  for (const Stage& s : stages) {
    std::vector<double> wall, cpu;
    if (!time_batches(s.span, kBatches, kBatch, s.call, nullptr, r, wall,
                      cpu)) {
      throw std::runtime_error(std::string("wire probe failed: ") + s.name);
    }
    put_dist(r, s.name, dist(wall));
  }
  r.extra["wire.sink"] = static_cast<double>(sink);
}

void convert_probe(std::uint64_t seed, Result& r) {
  // A fetched URSA document (id, title, text) of the corpus' typical size.
  constexpr std::size_t kTextBytes = 1024;
  constexpr int kBatches = 200;
  constexpr int kBatch = 16;
  const ntcs::convert::MessageSchema schema(
      "ursa_doc", {{"id", ntcs::convert::FieldType::u64},
                   {"title", ntcs::convert::FieldType::string},
                   {"text", ntcs::convert::FieldType::string}});
  ntcs::convert::Record rec = schema.make_record();
  ntcs::Rng rng(seed ^ 0xc0);
  std::string text(kTextBytes, 'a');
  for (char& c : text) c = static_cast<char>('a' + rng.next_below(26));
  if (!rec.set_u64("id", rng.next()).ok() ||
      !rec.set_string("title", "document " + std::to_string(rng.next())).ok() ||
      !rec.set_string("text", text).ok()) {
    throw std::runtime_error("convert probe: record setup failed");
  }
  auto packed = schema.pack(rec);
  if (!packed.ok()) throw std::runtime_error("convert probe: pack failed");
  const ntcs::Bytes wire_form = packed.value();
  std::size_t sink = 0;
  const auto pack = [&] {
    auto b = schema.pack(rec);
    if (!b.ok()) return false;
    sink += b.value().size();
    return true;
  };
  const auto unpack = [&] {
    auto back = schema.unpack(wire_form);
    if (!back.ok() || !(back.value() == rec)) return false;
    sink += 1;
    return true;
  };
  std::vector<double> wall, cpu;
  if (!time_batches("probe.convert.pack", kBatches, kBatch, pack, nullptr, r,
                    wall, cpu)) {
    throw std::runtime_error("convert probe: pack failed");
  }
  put_dist(r, "convert.pack_us", dist(wall));
  wall.clear();
  cpu.clear();
  if (!time_batches("probe.convert.unpack", kBatches, kBatch, unpack, nullptr,
                    r, wall, cpu)) {
    throw std::runtime_error("convert probe: unpack mismatch");
  }
  put_dist(r, "convert.unpack_us", dist(wall));
  r.extra["convert.record_bytes"] = static_cast<double>(wire_form.size());
  r.extra["convert.sink"] = static_cast<double>(sink);
}

void nsp_probe(ntc::Testbed& tb, ntc::Node& client,
               const std::string& leased_name, const std::string& machine,
               const std::string& net, Result& r) {
  constexpr int kFresh = 8;
  std::vector<double> wall, cpu;
  const auto hit = [&] { return client.commod().locate(leased_name).ok(); };
  if (!time_batches("probe.nsp.lookup_hit", 100, 16, hit, nullptr, r, wall,
                    cpu)) {
    throw std::runtime_error("nsp probe: leased locate failed");
  }
  put_dist(r, "nsp.lookup_hit_us", dist(wall));

  std::vector<std::unique_ptr<ntc::Node>> fresh;
  std::vector<double> miss;
  for (int i = 0; i < kFresh; ++i) {
    const std::string name = "fresh-" + std::to_string(i);
    auto n = tb.spawn_module(name, machine, net);
    if (!n.ok()) throw std::runtime_error("nsp probe: spawn failed");
    const std::int64_t t0 = now_ns();
    auto u = client.commod().locate(name);
    const std::int64_t t1 = now_ns();
    if (!u.ok() || u.value() != n.value()->identity().uadd()) {
      throw std::runtime_error("nsp probe: fresh locate wrong");
    }
    r.spans.add("probe.nsp.lookup_miss", t0, t1);
    miss.push_back(static_cast<double>(t1 - t0) / 1e3);
    fresh.push_back(std::move(n.value()));
  }
  put_dist(r, "nsp.lookup_miss_us", dist(miss));
  for (auto& n : fresh) n->stop();
}

namespace {

double request_p50_us(ntc::Node& client, ntc::UAdd dst, int n) {
  const ntcs::Bytes msg(64, 0x5a);
  std::vector<double> lat;
  lat.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::int64_t t0 = now_ns();
    auto rep = client.commod().request(dst, msg, 5s);
    const std::int64_t t1 = now_ns();
    if (!rep.ok() || rep.value().payload != msg) {
      throw std::runtime_error("hop probe request failed");
    }
    lat.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  return quantile(lat, 0.5);
}

}  // namespace

void gw_hop_probe(ntc::Node& client, ntc::UAdd far, ntc::UAdd near,
                  Result& r) {
  std::vector<double> diffs;
  for (int round = 0; round < 5; ++round) {
    const std::int64_t t0 = now_ns();
    const double f = request_p50_us(client, far, 200);
    const double n = request_p50_us(client, near, 200);
    r.spans.add("probe.gw.hop", t0, now_ns());
    diffs.push_back(f - n);
  }
  r.put("gw.hop_us", median(diffs), "us");
}

}  // namespace perf
