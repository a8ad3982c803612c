// fuzz_lcm_header.cpp — LCM header decode plus the trace/flag peeks.
// The peeks are the gateway fast path: they read trace words and flags
// at fixed offsets without a full decode, so they must agree with
// decode_lcm on every input decode_lcm accepts, and must never read out
// of bounds on input it rejects. Also drives the ND and IP envelope
// decoders, which share the ShiftReader plumbing. The receive path decodes
// with the *_view decoders; every input is cross-checked against the
// copying decoders, which must accept, reject and decode identically.
#include <algorithm>
#include <cstdint>

#include "core/wire/frames.h"

namespace wire = ntcs::core::wire;

namespace {

void require(bool cond) {
  if (!cond) __builtin_trap();
}

bool same(ntcs::BytesView a, const ntcs::Bytes& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin());
}

void cross_check_nd(ntcs::BytesView in) {
  auto copy = wire::decode_nd(in);
  auto view = wire::decode_nd_view(in);
  require(copy.ok() == view.ok());
  if (!copy.ok()) {
    require(copy.code() == view.code());
    return;
  }
  const auto& c = copy.value();
  const auto& v = view.value();
  require(c.kind == v.kind);
  require(c.open.src_uadd == v.open.src_uadd &&
          c.open.src_arch == v.open.src_arch &&
          c.open.src_phys == v.open.src_phys);
  require(c.ack.uadd == v.ack.uadd && c.ack.arch == v.ack.arch);
  require(same(v.body, c.body));
}

void cross_check_ip(ntcs::BytesView in) {
  auto copy = wire::decode_ip(in);
  auto view = wire::decode_ip_view(in);
  require(copy.ok() == view.ok());
  if (!copy.ok()) {
    require(copy.code() == view.code());
    return;
  }
  const auto& c = copy.value();
  const auto& v = view.value();
  require(c.kind == v.kind && c.ivc == v.ivc && c.errc == v.errc &&
          c.text == v.text);
  require(c.extend.final_uadd == v.extend.final_uadd &&
          c.extend.route.size() == v.extend.route.size());
  require(same(v.body, c.body));
}

void cross_check_lcm(ntcs::BytesView in) {
  auto copy = wire::decode_lcm(in);
  auto view = wire::decode_lcm_view(in);
  require(copy.ok() == view.ok());
  if (!copy.ok()) {
    require(copy.code() == view.code());
    return;
  }
  const auto& c = copy.value().header;
  const auto& v = view.value().header;
  require(c.kind == v.kind && c.flags == v.flags && c.src == v.src &&
          c.dst == v.dst && c.req_id == v.req_id && c.mode == v.mode &&
          c.src_arch == v.src_arch && c.trace_hi == v.trace_hi &&
          c.trace_lo == v.trace_lo && c.trace_parent == v.trace_parent);
  require(same(view.value().payload, copy.value().payload));
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  ntcs::BytesView view(data, size);

  auto lcm = wire::decode_lcm(view);
  auto flags = wire::peek_lcm_flags(view);
  auto trace = wire::peek_lcm_trace(view);
  if (lcm.ok()) {
    const auto& h = lcm.value().header;
    // The flags peek must see exactly what the full decode sees.
    require(flags.has_value() && *flags == h.flags);
    // The trace peek treats a zero trace id as untraced; otherwise it
    // must reproduce the decoded words.
    const bool traced = (h.flags & wire::kLcmFlagTraced) != 0 &&
                        (h.trace_hi | h.trace_lo) != 0;
    require(trace.has_value() == traced);
    if (traced) {
      require(trace->hi == h.trace_hi && trace->lo == h.trace_lo &&
              trace->parent == h.trace_parent);
    }
    // Canonical re-encode must round-trip.
    ntcs::Bytes wire2 =
        wire::encode_lcm(h, ntcs::BytesView(lcm.value().payload));
    auto again = wire::decode_lcm(ntcs::BytesView(wire2));
    require(again.ok());
    require(again.value().header.kind == h.kind);
    require(again.value().header.flags == h.flags);
    require(again.value().header.src == h.src);
    require(again.value().header.dst == h.dst);
    require(again.value().header.req_id == h.req_id);
    require(again.value().payload == lcm.value().payload);
  }

  // Every decoder must be total on arbitrary bytes (no crash, no
  // over-read), and each view decoder must agree with its copying twin.
  cross_check_lcm(view);
  cross_check_nd(view);
  cross_check_ip(view);
  (void)wire::peek_nd_trace(view);
  auto nd = wire::decode_nd_view(view);
  if (nd.ok() && nd.value().kind == wire::NdKind::payload) {
    // A payload body is an opaque IP envelope, and a data envelope's body
    // an LCM message: the receive path decodes them nested, in place.
    cross_check_ip(nd.value().body);
    auto ip = wire::decode_ip_view(nd.value().body);
    if (ip.ok() && ip.value().kind == wire::IpKind::data) {
      cross_check_lcm(ip.value().body);
    }
  }
  return 0;
}
