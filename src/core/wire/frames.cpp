#include "core/wire/frames.h"

#include "convert/mode.h"
#include "convert/shift.h"

namespace ntcs::core::wire {

using convert::ShiftReader;
using convert::ShiftWriter;

namespace {

constexpr std::uint32_t kFragMoreBit = 1u << 31;
constexpr std::uint32_t kFragFirstBit = 1u << 23;
/// Cap on how much a first frame's announced total may pre-reserve: a
/// corrupted total-length field must not allocate the machine away. Larger
/// (legitimate) messages still reassemble; the buffer just grows normally.
constexpr std::uint32_t kMaxReserve = 4u << 20;

void put_string(ShiftWriter& w, std::string_view s) {
  w.put_u32(static_cast<std::uint32_t>(s.size()));
  w.put_raw(s);
}

ntcs::Result<std::string> get_string(ShiftReader& r) {
  auto len = r.get_u32();
  if (!len) return len.error();
  return r.get_raw_string(len.value());
}

/// LCM header layout: kind(4) flags(4) src(8) dst(8) req_id(4) mode(4)
/// src_arch(4) = 36 bytes, then the three trace words when traced.
constexpr std::size_t kLcmFlagsOff = 4;
constexpr std::size_t kLcmHeaderMin = 36;
constexpr std::size_t kLcmTraceSize = 24;

/// Shift mode written at a fixed position (MSB first, a u64 as two words
/// high first): ShiftWriter's stream layout, for headers built in place.
std::uint8_t* put32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
  return p + 4;
}

std::uint8_t* put64(std::uint8_t* p, std::uint64_t v) {
  return put32(put32(p, static_cast<std::uint32_t>(v >> 32)),
               static_cast<std::uint32_t>(v));
}

/// Common prologue of every ND message.
void write_nd_prologue(std::uint8_t* p, NdKind kind) {
  put32(put32(put32(p, kMagic), kVersion), static_cast<std::uint32_t>(kind));
}

ntcs::Bytes nd_prologue(NdKind kind) {
  ntcs::Bytes out(kNdPrologueSize);
  write_nd_prologue(out.data(), kind);
  return out;
}

void write_ip_prologue(std::uint8_t* p, IpKind kind, std::uint64_t ivc) {
  put64(put32(p, static_cast<std::uint32_t>(kind)), ivc);
}

ntcs::Bytes ip_prologue(IpKind kind, std::uint64_t ivc) {
  ntcs::Bytes out(kIpPrologueSize);
  write_ip_prologue(out.data(), kind, ivc);
  return out;
}

std::size_t lcm_header_size(const LcmHeader& h) {
  return (h.flags & kLcmFlagTraced) != 0 ? kLcmHeaderMin + kLcmTraceSize
                                         : kLcmHeaderMin;
}

void write_lcm_header(std::uint8_t* p, const LcmHeader& h) {
  p = put32(p, static_cast<std::uint32_t>(h.kind));
  p = put32(p, h.flags);
  p = put64(p, h.src.raw());
  p = put64(p, h.dst.raw());
  p = put32(p, h.req_id);
  p = put32(p, h.mode);
  p = put32(p, h.src_arch);
  if ((h.flags & kLcmFlagTraced) != 0) {
    p = put64(p, h.trace_hi);
    p = put64(p, h.trace_lo);
    put64(p, h.trace_parent);
  }
}

/// An LCM message behind `headroom` free bytes.
Framed build_lcm(const LcmHeader& h, ntcs::BytesView payload,
                 std::size_t headroom) {
  // Every NTCS header travels shift-encoded (§5.2); count it so the
  // convert.mode.* breakdown covers all three modes.
  convert::note_mode(convert::XferMode::shift);
  Framed m = framed_copy(payload, headroom + lcm_header_size(h));
  m.off = headroom;
  write_lcm_header(m.buf.data() + headroom, h);
  return m;
}

}  // namespace

// ---------------------------------------------------------------- framed

std::uint8_t* Framed::push_front(std::size_t n) {
  if (off < n) {
    // Short headroom: move the message back once, leaving exactly `n`.
    const std::size_t grow = n - off;
    buf.insert(buf.begin(), grow, 0);
    off += grow;
  }
  off -= n;
  return buf.data() + off;
}

Framed framed_copy(ntcs::BytesView msg, std::size_t headroom) {
  Framed m;
  m.buf.reserve(headroom + msg.size());
  m.buf.resize(headroom);
  ntcs::append(m.buf, msg);
  m.off = headroom;
  return m;
}

// ---------------------------------------------------------------- fragments

std::uint32_t make_frag_word(bool more, std::uint32_t chunk_len,
                             std::uint32_t seq, bool first) {
  return (more ? kFragMoreBit : 0u) | ((seq & kFragSeqMask) << 24) |
         (first ? kFragFirstBit : 0u) | (chunk_len & kFragLenMask);
}

bool frag_more(std::uint32_t word) { return (word & kFragMoreBit) != 0; }

bool frag_first(std::uint32_t word) { return (word & kFragFirstBit) != 0; }

std::uint32_t frag_len(std::uint32_t word) { return word & kFragLenMask; }

std::uint32_t frag_seq(std::uint32_t word) { return (word >> 24) & kFragSeqMask; }

std::size_t encode_frag_header(const FragSpan& s,
                               std::uint8_t out[kFragHeaderMax]) {
  std::uint8_t* p = put32(out, s.word);
  if (!s.first) return 4;
  put32(p, s.total);
  return 8;
}

std::vector<FragSpan> fragment_spans(ntcs::BytesView msg, std::size_t mtu,
                                     std::uint32_t& seq) {
  std::vector<FragSpan> spans;
  const std::uint32_t total = static_cast<std::uint32_t>(msg.size());
  std::size_t off = 0;
  bool first = true;
  do {
    const std::size_t hdr = first ? 8 : 4;
    const std::size_t chunk_max = mtu > hdr ? mtu - hdr : 1;
    const std::size_t n =
        msg.size() - off < chunk_max ? msg.size() - off : chunk_max;
    FragSpan s;
    s.first = first;
    s.total = total;
    s.word = make_frag_word(/*more=*/off + n < msg.size(),
                            static_cast<std::uint32_t>(n), seq, first);
    seq = (seq + 1) & kFragSeqMask;
    s.chunk = msg.subspan(off, n);
    spans.push_back(s);
    off += n;
    first = false;
  } while (off < msg.size());
  return spans;
}

std::vector<ntcs::Bytes> fragment(ntcs::BytesView msg, std::size_t mtu,
                                  std::uint32_t& seq) {
  std::vector<ntcs::Bytes> frames;
  for (const FragSpan& s : fragment_spans(msg, mtu, seq)) {
    std::uint8_t hdr[kFragHeaderMax];
    const std::size_t hn = encode_frag_header(s, hdr);
    ntcs::Bytes frame;
    frame.reserve(hn + s.chunk.size());
    ntcs::append(frame, ntcs::BytesView(hdr, hn));
    ntcs::append(frame, s.chunk);
    frames.push_back(std::move(frame));
  }
  return frames;
}

std::vector<ntcs::Bytes> fragment(ntcs::BytesView msg, std::size_t mtu) {
  std::uint32_t seq = 0;
  return fragment(msg, mtu, seq);
}

ntcs::Result<Reassembler::FeedResult> Reassembler::feed(ntcs::BytesView frame) {
  return feed_impl(frame, nullptr);
}

ntcs::Result<Reassembler::FeedResult> Reassembler::feed(ntcs::Bytes&& frame) {
  return feed_impl(frame, &frame);
}

void Reassembler::discard() {
  acc_.clear();
  acc_off_ = 0;
  have_head_ = false;
}

ntcs::Result<Reassembler::FeedResult> Reassembler::feed_impl(
    ntcs::BytesView frame, ntcs::Bytes* owned) {
  ShiftReader r(frame);
  auto word = r.get_u32();
  if (!word) return word.error();
  const bool first = frag_first(word.value());
  std::uint32_t total = 0;
  if (first) {
    auto t = r.get_u32();
    if (!t) return t.error();
    total = t.value();
  }
  const std::uint32_t len = frag_len(word.value());
  if (r.remaining() != len) {
    return ntcs::Error(ntcs::Errc::bad_message,
                       "fragment length mismatches frame size");
  }
  FeedResult res;
  const std::uint32_t seq = frag_seq(word.value());
  // Wrap-aware forward distance from the last accepted frame. 1 is the
  // in-order successor; 0 a duplicate; just short of a full wrap is a late
  // straggler from behind (overtaken on the wire — reordering only shifts
  // frames by a handful of slots, so the stale zone is kept narrow: a
  // large "gap" after a loss burst must not read as staleness).
  const std::uint32_t dist = (seq - last_seq_) & kFragSeqMask;
  if (dist == 0 || dist > kFragSeqMask - kFragStaleWindow) {
    res.dropped = true;
    return res;
  }
  if (dist != 1) {
    // Frames went missing (lost, or overtaken and due to arrive stale):
    // whatever message they belonged to is unrecoverable. Resynchronise.
    discard();
    res.resynced = true;
  }
  last_seq_ = seq;
  bool adopted = false;
  if (first) {
    if (have_head_ || !acc_.empty()) {
      // The sender started a new message while we held a partial one —
      // its tail frames were lost without leaving a sequence gap we could
      // see (e.g. lost then resent range). The partial message is gone.
      discard();
      res.resynced = true;
    }
    have_head_ = true;
    expect_total_ = total;
    if (owned != nullptr && !frag_more(word.value())) {
      // The whole message is in this frame: keep the delivered buffer and
      // skip its header instead of copying the chunk out.
      acc_off_ = r.offset();
      acc_ = std::move(*owned);
      adopted = true;
    } else {
      // The whole message's storage, reserved once; every chunk after
      // this appends in place.
      acc_.reserve(total < kMaxReserve ? total : kMaxReserve);
    }
  } else if (!have_head_) {
    // Continuation of a message whose first frame we never accepted (it
    // was lost ahead of the resync point). The frame is sequence-valid —
    // consume its number — but its bytes belong to nothing.
    res.orphan = true;
    return res;
  }
  if (!adopted) ntcs::append(acc_, r.rest());
  if (!frag_more(word.value())) {
    if (pending_bytes() != expect_total_) {
      // Header corruption slipped past the length checks (a flipped bit
      // in a chunk-length or total-length field): the message cannot be
      // trusted. Drop it and restart cleanly at the next first frame.
      discard();
      res.resynced = true;
      return res;
    }
    res.complete = true;
  }
  return res;
}

Framed Reassembler::take_framed() {
  Framed out{std::move(acc_), acc_off_};
  acc_ = ntcs::Bytes{};
  acc_off_ = 0;
  have_head_ = false;
  expect_total_ = 0;
  return out;
}

ntcs::Bytes Reassembler::take() {
  Framed m = take_framed();
  m.buf.erase(m.buf.begin(),
              m.buf.begin() + static_cast<std::ptrdiff_t>(m.off));
  return std::move(m.buf);
}

// ---------------------------------------------------------------- ND layer

ntcs::Bytes encode_nd_open(const NdOpen& m) {
  ntcs::Bytes out = nd_prologue(NdKind::open);
  ShiftWriter w(out);
  w.put_u64(m.src_uadd.raw());
  w.put_u32(m.src_arch);
  put_string(w, m.src_phys);
  return out;
}

ntcs::Bytes encode_nd_open_ack(const NdOpenAck& m) {
  ntcs::Bytes out = nd_prologue(NdKind::open_ack);
  ShiftWriter w(out);
  w.put_u64(m.uadd.raw());
  w.put_u32(m.arch);
  return out;
}

ntcs::Bytes encode_nd_payload(ntcs::BytesView ip_envelope) {
  Framed m = framed_copy(ip_envelope, kNdPrologueSize);
  push_nd_payload(m);
  return std::move(m.buf);
}

void push_nd_payload(Framed& m) {
  write_nd_prologue(m.push_front(kNdPrologueSize), NdKind::payload);
}

ntcs::Result<NdMessageView> decode_nd_view(ntcs::BytesView msg) {
  ShiftReader r(msg);
  auto magic = r.get_u32();
  if (!magic) return magic.error();
  if (magic.value() != kMagic) {
    return ntcs::Error(ntcs::Errc::bad_message, "bad magic");
  }
  auto version = r.get_u32();
  if (!version) return version.error();
  if (version.value() != kVersion) {
    return ntcs::Error(ntcs::Errc::bad_message, "protocol version mismatch");
  }
  auto kind = r.get_u32();
  if (!kind) return kind.error();

  NdMessageView out;
  switch (static_cast<NdKind>(kind.value())) {
    case NdKind::open: {
      out.kind = NdKind::open;
      auto uadd = r.get_u64();
      if (!uadd) return uadd.error();
      out.open.src_uadd = UAdd::from_raw(uadd.value());
      auto arch = r.get_u32();
      if (!arch) return arch.error();
      out.open.src_arch = arch.value();
      auto phys = get_string(r);
      if (!phys) return phys.error();
      out.open.src_phys = std::move(phys.value());
      return out;
    }
    case NdKind::open_ack: {
      out.kind = NdKind::open_ack;
      auto uadd = r.get_u64();
      if (!uadd) return uadd.error();
      out.ack.uadd = UAdd::from_raw(uadd.value());
      auto arch = r.get_u32();
      if (!arch) return arch.error();
      out.ack.arch = arch.value();
      return out;
    }
    case NdKind::payload: {
      out.kind = NdKind::payload;
      out.body = r.rest();
      return out;
    }
    default:
      return ntcs::Error(ntcs::Errc::bad_message, "unknown ND message kind");
  }
}

ntcs::Result<NdMessage> decode_nd(ntcs::BytesView msg) {
  auto v = decode_nd_view(msg);
  if (!v) return v.error();
  NdMessageView& m = v.value();
  return NdMessage{m.kind, std::move(m.open), m.ack, ntcs::to_bytes(m.body)};
}

// ---------------------------------------------------------------- IP layer

ntcs::Bytes encode_ip_data(std::uint64_t ivc, ntcs::BytesView lcm_msg) {
  Framed m = framed_copy(lcm_msg, kIpPrologueSize);
  push_ip_data(m, ivc);
  return std::move(m.buf);
}

void push_ip_data(Framed& m, std::uint64_t ivc) {
  write_ip_prologue(m.push_front(kIpPrologueSize), IpKind::data, ivc);
}

void set_ip_ivc(Framed& m, std::uint64_t ivc) {
  put64(m.buf.data() + m.off + 4, ivc);  // after the kind word
}

ntcs::Bytes encode_ip_extend(std::uint64_t ivc, const ExtendBody& b) {
  ntcs::Bytes out = ip_prologue(IpKind::extend, ivc);
  ShiftWriter w(out);
  w.put_u64(b.final_uadd.raw());
  w.put_u32(static_cast<std::uint32_t>(b.route.size()));
  for (const RouteHop& hop : b.route) {
    put_string(w, hop.net);
    put_string(w, hop.phys);
  }
  return out;
}

ntcs::Bytes encode_ip_extend_ok(std::uint64_t ivc) {
  return ip_prologue(IpKind::extend_ok, ivc);
}

ntcs::Bytes encode_ip_extend_fail(std::uint64_t ivc, std::uint32_t errc,
                                  const std::string& text) {
  ntcs::Bytes out = ip_prologue(IpKind::extend_fail, ivc);
  ShiftWriter w(out);
  w.put_u32(errc);
  put_string(w, text);
  return out;
}

ntcs::Bytes encode_ip_teardown(std::uint64_t ivc) {
  return ip_prologue(IpKind::teardown, ivc);
}

ntcs::Result<IpEnvelopeView> decode_ip_view(ntcs::BytesView envelope) {
  ShiftReader r(envelope);
  auto kind = r.get_u32();
  if (!kind) return kind.error();
  auto ivc = r.get_u64();
  if (!ivc) return ivc.error();

  IpEnvelopeView out;
  out.ivc = ivc.value();
  switch (static_cast<IpKind>(kind.value())) {
    case IpKind::data:
      out.kind = IpKind::data;
      out.body = r.rest();
      return out;
    case IpKind::extend: {
      out.kind = IpKind::extend;
      auto final_uadd = r.get_u64();
      if (!final_uadd) return final_uadd.error();
      out.extend.final_uadd = UAdd::from_raw(final_uadd.value());
      auto count = r.get_u32();
      if (!count) return count.error();
      if (count.value() > 64) {
        return ntcs::Error(ntcs::Errc::bad_message, "absurd route length");
      }
      for (std::uint32_t i = 0; i < count.value(); ++i) {
        RouteHop hop;
        auto net = get_string(r);
        if (!net) return net.error();
        hop.net = std::move(net.value());
        auto phys = get_string(r);
        if (!phys) return phys.error();
        hop.phys = std::move(phys.value());
        out.extend.route.push_back(std::move(hop));
      }
      return out;
    }
    case IpKind::extend_ok:
      out.kind = IpKind::extend_ok;
      return out;
    case IpKind::extend_fail: {
      out.kind = IpKind::extend_fail;
      auto errc = r.get_u32();
      if (!errc) return errc.error();
      out.errc = errc.value();
      auto text = get_string(r);
      if (!text) return text.error();
      out.text = std::move(text.value());
      return out;
    }
    case IpKind::teardown:
      out.kind = IpKind::teardown;
      return out;
    default:
      return ntcs::Error(ntcs::Errc::bad_message, "unknown IP envelope kind");
  }
}

ntcs::Result<IpEnvelope> decode_ip(ntcs::BytesView envelope) {
  auto v = decode_ip_view(envelope);
  if (!v) return v.error();
  IpEnvelopeView& m = v.value();
  return IpEnvelope{m.kind, m.ivc, std::move(m.extend), m.errc,
                    std::move(m.text), ntcs::to_bytes(m.body)};
}

// ---------------------------------------------------------------- LCM layer

ntcs::Bytes encode_lcm(const LcmHeader& h, ntcs::BytesView payload) {
  return std::move(build_lcm(h, payload, 0).buf);
}

Framed frame_lcm(const LcmHeader& h, ntcs::BytesView payload) {
  return build_lcm(h, payload, kLcmHeadroom);
}

ntcs::Result<LcmMessageView> decode_lcm_view(ntcs::BytesView msg) {
  ShiftReader r(msg);
  LcmMessageView out;
  auto kind = r.get_u32();
  if (!kind) return kind.error();
  if (kind.value() < 1 || kind.value() > 4) {
    return ntcs::Error(ntcs::Errc::bad_message, "unknown LCM message kind");
  }
  out.header.kind = static_cast<LcmKind>(kind.value());
  auto flags = r.get_u32();
  if (!flags) return flags.error();
  out.header.flags = flags.value();
  auto src = r.get_u64();
  if (!src) return src.error();
  out.header.src = UAdd::from_raw(src.value());
  auto dst = r.get_u64();
  if (!dst) return dst.error();
  out.header.dst = UAdd::from_raw(dst.value());
  auto req = r.get_u32();
  if (!req) return req.error();
  out.header.req_id = req.value();
  auto mode = r.get_u32();
  if (!mode) return mode.error();
  out.header.mode = mode.value();
  auto arch = r.get_u32();
  if (!arch) return arch.error();
  out.header.src_arch = arch.value();
  if ((out.header.flags & kLcmFlagTraced) != 0) {
    auto hi = r.get_u64();
    if (!hi) return hi.error();
    out.header.trace_hi = hi.value();
    auto lo = r.get_u64();
    if (!lo) return lo.error();
    out.header.trace_lo = lo.value();
    auto parent = r.get_u64();
    if (!parent) return parent.error();
    out.header.trace_parent = parent.value();
  }
  out.payload = r.rest();
  return out;
}

ntcs::Result<LcmMessage> decode_lcm(ntcs::BytesView msg) {
  auto v = decode_lcm_view(msg);
  if (!v) return v.error();
  return LcmMessage{v.value().header, ntcs::to_bytes(v.value().payload)};
}

std::optional<LcmTraceWords> peek_lcm_trace(ntcs::BytesView lcm_msg) {
  if (lcm_msg.size() < kLcmHeaderMin + kLcmTraceSize) return std::nullopt;
  ShiftReader fr(lcm_msg.subspan(kLcmFlagsOff));
  auto flags = fr.get_u32();
  if (!flags || (flags.value() & kLcmFlagTraced) == 0) return std::nullopt;
  ShiftReader tr(lcm_msg.subspan(kLcmHeaderMin));
  LcmTraceWords w;
  auto hi = tr.get_u64();
  auto lo = tr.get_u64();
  auto parent = tr.get_u64();
  if (!hi || !lo || !parent) return std::nullopt;
  w.hi = hi.value();
  w.lo = lo.value();
  w.parent = parent.value();
  if ((w.hi | w.lo) == 0) return std::nullopt;
  return w;
}

std::optional<std::uint32_t> peek_lcm_flags(ntcs::BytesView lcm_msg) {
  // The smallest (untraced) complete header is kLcmHeaderMin bytes;
  // anything shorter is not LCM.
  if (lcm_msg.size() < kLcmHeaderMin) return std::nullopt;
  ShiftReader fr(lcm_msg.subspan(kLcmFlagsOff));
  auto flags = fr.get_u32();
  if (!flags) return std::nullopt;
  return flags.value();
}

std::optional<LcmTraceWords> peek_nd_trace(ntcs::BytesView nd_msg) {
  // The LCM message starts after the ND and IP prologues.
  if (nd_msg.size() < kLcmHeadroom) return std::nullopt;
  ShiftReader nr(nd_msg);
  auto magic = nr.get_u32();
  auto version = nr.get_u32();
  auto nd_kind = nr.get_u32();
  if (!magic || magic.value() != kMagic) return std::nullopt;
  if (!version || version.value() != kVersion) return std::nullopt;
  if (!nd_kind ||
      nd_kind.value() != static_cast<std::uint32_t>(NdKind::payload)) {
    return std::nullopt;
  }
  auto ip_kind = nr.get_u32();
  if (!ip_kind || ip_kind.value() != static_cast<std::uint32_t>(IpKind::data)) {
    return std::nullopt;
  }
  if (!nr.get_u64()) return std::nullopt;  // ivc
  return peek_lcm_trace(nr.rest());
}

}  // namespace ntcs::core::wire
