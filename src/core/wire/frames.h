// frames.h — the NTCS internal wire protocol.
//
// Everything here is encoded in shift mode (paper §5.2): headers are
// structures of four-byte integers moved to/from the byte stream with
// shift/mask routines, so they mean the same thing on every machine
// representation. Variable-length fields (physical address blobs, route
// lists) are length-prefixed byte strings — characters are single bytes on
// every testbed machine, so no conversion is needed for them either.
//
// Nesting on a local virtual circuit (one IPCS frame stream):
//
//   IPCS frame   = [frag word][chunk]                      (ND fragmentation)
//   ND message   = [magic][version][nd kind][body]          (after reassembly)
//     nd open     : body = NdOpen       (channel-open UAdd/arch exchange §3.3)
//     nd open ack : body = NdOpenAck
//     nd payload  : body = IP envelope
//   IP envelope  = [ip kind][ivc id][body]
//     data        : body = LCM message (opaque to gateways)
//     extend      : body = ExtendBody  (chained-circuit establishment §4)
//     extend ok   : body = empty
//     extend fail : body = [errc][text]
//     teardown    : body = empty
//   LCM message  = [lcm kind][flags][src][dst][req id][mode][src arch][payload]
//
// One buffer per message: a data message is built once by the LCM-Layer
// with room in front for the IP and ND prologues, which those layers then
// write in place (Framed, frame_lcm, push_ip_data, push_nd_payload). On
// receive the reassembled buffer travels upward with an offset, and the
// *_view decoders hand out views into it. The Bytes-returning encoders and
// copying decoders below are thin wrappers over the same writers and view
// decoders.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/error.h"
#include "core/addr.h"

namespace ntcs::core::wire {

inline constexpr std::uint32_t kMagic = 0x4E544353;  // "NTCS"
inline constexpr std::uint32_t kVersion = 1;

/// Fixed prologue sizes of the two envelopes around every LCM message:
/// ND [magic][version][kind], IP [kind][ivc].
inline constexpr std::size_t kNdPrologueSize = 12;
inline constexpr std::size_t kIpPrologueSize = 12;
/// Headroom an LCM message is built with, so the IP- and ND-Layers can
/// each write their prologue in front of it without moving it.
inline constexpr std::size_t kLcmHeadroom = kNdPrologueSize + kIpPrologueSize;

/// One message in one buffer. `buf[off..]` is the message as the layer
/// holding it sees it. `buf[..off)` is headroom: free space for the outer
/// prologues on the send side, the outer layers' consumed headers on the
/// receive side. Layers move `off` instead of copying the message.
struct Framed {
  ntcs::Bytes buf;
  std::size_t off = 0;

  ntcs::BytesView view() const { return ntcs::BytesView(buf).subspan(off); }
  /// Claim `n` bytes in front of the message (the caller writes its
  /// prologue there). Grows the headroom, moving the message once, only
  /// when it is short.
  std::uint8_t* push_front(std::size_t n);
};

/// Copy an encoded message behind `headroom` free bytes: the entry for
/// callers that hold only a view.
Framed framed_copy(ntcs::BytesView msg, std::size_t headroom);

// ---------------------------------------------------------------- fragments

/// Fragment word: bit 31 = more-fragments, bits 24..30 = a 7-bit frame
/// sequence number (mod 128, per circuit per direction), bit 23 =
/// first-fragment-of-message, bits 0..22 = chunk length. The sequence
/// number lets the receiver suppress duplicated frames and detect
/// overtaken/lost ones — the ND-Layer's end of hiding "IPCS error
/// conventions" when the substrate misbehaves. The first-fragment flag
/// marks where a message starts; the first frame additionally carries the
/// message's total length as a fourth header byte-quad so the reassembler
/// can reserve the whole buffer once and append chunks in place.
inline constexpr std::uint32_t kFragSeqMask = 0x7Fu;
inline constexpr std::uint32_t kFragLenMask = 0x007FFFFFu;
/// Frames up to this far *behind* the last accepted one are stale
/// stragglers (dropped); larger backward distances read as forward gaps
/// (lost frames) instead. Reordering shifts frames by a few slots, loss
/// bursts can span dozens — hence a narrow stale zone.
inline constexpr std::uint32_t kFragStaleWindow = 16u;
std::uint32_t make_frag_word(bool more, std::uint32_t chunk_len,
                             std::uint32_t seq = 0, bool first = false);
bool frag_more(std::uint32_t word);
bool frag_first(std::uint32_t word);
std::uint32_t frag_len(std::uint32_t word);
std::uint32_t frag_seq(std::uint32_t word);

/// One MTU-sized frame of a message, described without copying the chunk:
/// the header words plus a view into the original message. The frame on
/// the wire is [frag word][chunk] — or, when `first`,
/// [frag word][total len][chunk].
struct FragSpan {
  std::uint32_t word = 0;
  std::uint32_t total = 0;  // whole-message length; meaningful when first
  bool first = false;
  ntcs::BytesView chunk;

  std::size_t header_size() const { return first ? 8 : 4; }
};

/// Largest frame header a FragSpan can need.
inline constexpr std::size_t kFragHeaderMax = 8;

/// Serialise a span's frame header (shift mode: MSB first) into `out`;
/// returns the number of bytes written (4 or 8). The frame on the wire is
/// this header followed by the span's chunk bytes.
std::size_t encode_frag_header(const FragSpan& s,
                               std::uint8_t out[kFragHeaderMax]);

/// Split a message into MTU-sized frame descriptors whose chunks alias
/// `msg` — the zero-copy fragmentation path. `seq` is the running
/// per-circuit frame counter; it is stamped into each frame and advanced
/// past them. `msg` must outlive the spans.
std::vector<FragSpan> fragment_spans(ntcs::BytesView msg, std::size_t mtu,
                                     std::uint32_t& seq);

/// Split a message into MTU-sized IPCS frames (each a materialised
/// [header][chunk] buffer). Kept for tests and single-frame encodings; the
/// ND-Layer's hot path sends fragment_spans() directly.
std::vector<ntcs::Bytes> fragment(ntcs::BytesView msg, std::size_t mtu,
                                  std::uint32_t& seq);
/// Sequence-free convenience (tests, single-shot encodings): frames are
/// numbered from 0.
std::vector<ntcs::Bytes> fragment(ntcs::BytesView msg, std::size_t mtu);

/// Streaming reassembler for one virtual circuit. Frames normally arrive
/// in order; under fault injection they may be duplicated or overtaken,
/// and the sequence number sorts that out:
///   * a frame repeating the last sequence number is a duplicate — dropped;
///   * a frame a little behind (wrap-aware backward distance within
///     kFragStaleWindow) is stale — dropped;
///   * a small forward gap means frames were lost or overtaken — any
///     partial reassembly is discarded (that message is lost) and the
///     stream re-synchronises at the new frame.
class Reassembler {
 public:
  struct FeedResult {
    bool complete = false;  // this frame finished a message; call take()
    bool dropped = false;   // duplicate or stale frame, ignored
    bool resynced = false;  // forward gap: stream resynchronised
    bool orphan = false;    // continuation whose first frame was lost
  };

  /// Feed one IPCS frame. Errors indicate a malformed frame (protocol
  /// violation); fault-induced anomalies come back in the FeedResult.
  ntcs::Result<FeedResult> feed(ntcs::BytesView frame);
  /// Same rules for a frame the caller owns: a frame that carries a whole
  /// message is adopted as the message's buffer instead of copied.
  ntcs::Result<FeedResult> feed(ntcs::Bytes&& frame);

  /// The completed message after feed() reported complete, in the buffer
  /// it was reassembled in (an adopted frame's header is skipped by `off`).
  Framed take_framed();
  /// The same message in a buffer of its own.
  ntcs::Bytes take();

  std::size_t pending_bytes() const { return acc_.size() - acc_off_; }

 private:
  ntcs::Result<FeedResult> feed_impl(ntcs::BytesView frame,
                                     ntcs::Bytes* owned);
  void discard();

  ntcs::Bytes acc_;
  std::size_t acc_off_ = 0;        // frame header of an adopted frame
  bool have_head_ = false;         // saw the current message's first frame
  std::uint32_t expect_total_ = 0; // its announced total length
  // Last accepted sequence number; initialised so the first frame (seq 0)
  // is in-order.
  std::uint32_t last_seq_ = kFragSeqMask;
};

// ---------------------------------------------------------------- ND layer

enum class NdKind : std::uint32_t {
  open = 1,      // first message on a new channel
  open_ack = 2,  // acceptor's answer
  payload = 3,   // everything else: an IP envelope
};

/// Channel-open exchange (§3.3): "information exchanged between modules
/// during the channel open protocol ... is then locally cached".
struct NdOpen {
  UAdd src_uadd;               // may be a TAdd during bootstrap (§3.4)
  std::uint32_t src_arch = 0;  // convert::arch_wire_id
  std::string src_phys;        // so the acceptor can cache UAdd -> phys
};

struct NdOpenAck {
  UAdd uadd;  // acceptor's UAdd (or TAdd)
  std::uint32_t arch = 0;
};

ntcs::Bytes encode_nd_open(const NdOpen& m);
ntcs::Bytes encode_nd_open_ack(const NdOpenAck& m);
ntcs::Bytes encode_nd_payload(ntcs::BytesView ip_envelope);
/// Write the ND payload prologue into the headroom: the IP envelope at
/// m.view() becomes an ND message.
void push_nd_payload(Framed& m);

/// A decoded ND message; `Body` is Bytes (owning) or BytesView (into the
/// decoded buffer).
template <class Body>
struct BasicNdMessage {
  NdKind kind = NdKind::payload;
  NdOpen open;        // when kind == open
  NdOpenAck ack;      // when kind == open_ack
  Body body;          // when kind == payload: the IP envelope
};
using NdMessage = BasicNdMessage<ntcs::Bytes>;
using NdMessageView = BasicNdMessage<ntcs::BytesView>;

ntcs::Result<NdMessageView> decode_nd_view(ntcs::BytesView msg);
ntcs::Result<NdMessage> decode_nd(ntcs::BytesView msg);

// ---------------------------------------------------------------- IP layer

enum class IpKind : std::uint32_t {
  data = 1,
  extend = 2,
  extend_ok = 3,
  extend_fail = 4,
  teardown = 5,
};

/// One hop of a source-computed route: which network to continue on and the
/// physical address to connect to there. The last hop is the destination
/// module itself.
struct RouteHop {
  std::string net;
  std::string phys;
};

struct ExtendBody {
  UAdd final_uadd;
  std::vector<RouteHop> route;  // remaining hops, front is next
};

template <class Body>
struct BasicIpEnvelope {
  IpKind kind = IpKind::data;
  std::uint64_t ivc = 0;
  ExtendBody extend;       // kind == extend
  std::uint32_t errc = 0;  // kind == extend_fail
  std::string text;        // kind == extend_fail
  Body body;               // kind == data: the LCM message
};
using IpEnvelope = BasicIpEnvelope<ntcs::Bytes>;
using IpEnvelopeView = BasicIpEnvelope<ntcs::BytesView>;

ntcs::Bytes encode_ip_data(std::uint64_t ivc, ntcs::BytesView lcm_msg);
/// Write the IP data prologue into the headroom: the LCM message at
/// m.view() becomes an IP data envelope.
void push_ip_data(Framed& m, std::uint64_t ivc);
/// Rewrite the circuit id of the IP envelope at m.view() in place (the
/// gateway relay: same bytes onward, the next hop's IVC).
void set_ip_ivc(Framed& m, std::uint64_t ivc);
ntcs::Bytes encode_ip_extend(std::uint64_t ivc, const ExtendBody& b);
ntcs::Bytes encode_ip_extend_ok(std::uint64_t ivc);
ntcs::Bytes encode_ip_extend_fail(std::uint64_t ivc, std::uint32_t errc,
                                  const std::string& text);
ntcs::Bytes encode_ip_teardown(std::uint64_t ivc);

ntcs::Result<IpEnvelopeView> decode_ip_view(ntcs::BytesView envelope);
ntcs::Result<IpEnvelope> decode_ip(ntcs::BytesView envelope);

// ---------------------------------------------------------------- LCM layer

enum class LcmKind : std::uint32_t {
  data = 1,     // one-way message on a conversation
  request = 2,  // synchronous send: expects a reply
  reply = 3,
  dgram = 4,    // connectionless protocol (best effort)
};

/// Flag bits in the LCM header flags word.
inline constexpr std::uint32_t kLcmFlagInternal = 1u << 0;  // NTCS/DRTS traffic
/// Header carries three optional trace words (trace ID hi/lo + parent span
/// ID) between `src_arch` and the payload. Version-tolerant: frames without
/// the bit decode exactly as before, and decoders that predate the bit skip
/// nothing (the words only exist when the bit is set).
inline constexpr std::uint32_t kLcmFlagTraced = 1u << 1;
/// Back-pressure signal (overload control): set on a `reply` frame to tell
/// the requester its request was *shed* at the receiver — no application
/// reply is coming. The sender's window logic pauses admission toward that
/// destination for a configured interval instead of retrying, and the
/// request completes with the retriable Errc::overloaded. A busy frame is
/// also marked kLcmFlagInternal (it is circuit bookkeeping, not data).
inline constexpr std::uint32_t kLcmFlagBusy = 1u << 2;

struct LcmHeader {
  LcmKind kind = LcmKind::data;
  std::uint32_t flags = 0;
  UAdd src;
  UAdd dst;
  std::uint32_t req_id = 0;
  std::uint32_t mode = 0;      // convert::xfer_mode_wire_id of the payload
  std::uint32_t src_arch = 0;  // convert::arch_wire_id
  // Distributed-trace context, meaningful only when kLcmFlagTraced is set:
  // 128-bit trace ID plus the sender-side parent span ID (trace.h).
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t trace_parent = 0;
};

ntcs::Bytes encode_lcm(const LcmHeader& h, ntcs::BytesView payload);
/// The same message built with kLcmHeadroom in front: the one copy of the
/// payload on the send path.
Framed frame_lcm(const LcmHeader& h, ntcs::BytesView payload);

template <class Body>
struct BasicLcmMessage {
  LcmHeader header;
  Body payload;
};
using LcmMessage = BasicLcmMessage<ntcs::Bytes>;
using LcmMessageView = BasicLcmMessage<ntcs::BytesView>;

ntcs::Result<LcmMessageView> decode_lcm_view(ntcs::BytesView msg);
ntcs::Result<LcmMessage> decode_lcm(ntcs::BytesView msg);

/// The trace words of an LCM message, read without decoding the payload.
struct LcmTraceWords {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  std::uint64_t parent = 0;
};

/// Cheap fixed-offset peek at an LCM message's trace words; nullopt when
/// the frame is untraced (or too short to carry the header). Used by
/// forwarding/reassembly sites that must attribute a span to in-flight
/// traffic without paying a full decode.
std::optional<LcmTraceWords> peek_lcm_trace(ntcs::BytesView lcm_msg);

/// Cheap fixed-offset peek at an LCM message's flags word; nullopt when
/// the buffer is too short to hold an LCM header. Gateways use it on the
/// relay fast path to classify control-class (kLcmFlagInternal) frames —
/// which bypass per-peer fairness metering — without a full decode.
std::optional<std::uint32_t> peek_lcm_flags(ntcs::BytesView lcm_msg);

/// Same peek through an ND payload frame: ND prologue -> IP data envelope
/// -> LCM header. nullopt for non-payload ND kinds, non-data IP envelopes
/// and untraced messages.
std::optional<LcmTraceWords> peek_nd_trace(ntcs::BytesView nd_msg);

}  // namespace ntcs::core::wire
