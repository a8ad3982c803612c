// Unit tests for the NTCS wire protocol (S4): fragmentation, ND open
// exchange, IP envelopes, LCM headers — including malformed-input fuzzing.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "convert/shift.h"
#include "core/wire/frames.h"

namespace ntcs::core::wire {
namespace {

TEST(Fragment, SmallMessageIsOneFrame) {
  Bytes msg = to_bytes("small");
  auto frames = fragment(msg, 1024);
  ASSERT_EQ(frames.size(), 1u);
  Reassembler r;
  auto done = r.feed(frames[0]);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done.value().complete);
  EXPECT_EQ(r.take(), msg);
}

TEST(Fragment, EmptyMessageStillFrames) {
  auto frames = fragment({}, 1024);
  ASSERT_EQ(frames.size(), 1u);
  Reassembler r;
  EXPECT_TRUE(r.feed(frames[0]).value().complete);
  EXPECT_TRUE(r.take().empty());
}

TEST(Fragment, ExactMtuBoundary) {
  constexpr std::size_t kMtu = 128;
  // A first frame carries an 8-byte header (frag word + total length).
  Bytes msg(kMtu - 8, 0xAA);  // exactly one chunk
  auto frames = fragment(msg, kMtu);
  EXPECT_EQ(frames.size(), 1u);
  Bytes msg2(kMtu - 8 + 1, 0xBB);  // one byte over
  EXPECT_EQ(fragment(msg2, kMtu).size(), 2u);
}

TEST(Fragment, LargeMessageRoundTrip) {
  Rng rng(5);
  Bytes msg(50000);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
  auto frames = fragment(msg, 4096);
  EXPECT_GT(frames.size(), 10u);
  for (const auto& f : frames) EXPECT_LE(f.size(), 4096u);
  Reassembler r;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    auto done = r.feed(frames[i]);
    ASSERT_TRUE(done.ok());
    EXPECT_EQ(done.value().complete, i + 1 == frames.size());
    EXPECT_FALSE(done.value().dropped);
  }
  EXPECT_EQ(r.take(), msg);
}

TEST(Fragment, LengthMismatchRejected) {
  Bytes frame;
  convert::ShiftWriter w(frame);
  w.put_u32(make_frag_word(false, 10));  // claims 10 bytes
  w.put_raw(std::string_view("abc"));    // carries 3
  Reassembler r;
  EXPECT_EQ(r.feed(frame).code(), Errc::bad_message);
}

TEST(Fragment, WordHelpers) {
  const auto w = make_frag_word(true, 12345);
  EXPECT_TRUE(frag_more(w));
  EXPECT_EQ(frag_len(w), 12345u);
  EXPECT_EQ(frag_seq(w), 0u);
  const auto w2 = make_frag_word(false, 0);
  EXPECT_FALSE(frag_more(w2));
  EXPECT_EQ(frag_len(w2), 0u);
  // The sequence field coexists with the flag and length bits and wraps
  // at 7 bits; the length field is 23 bits wide.
  const auto w3 = make_frag_word(true, kFragLenMask, 130);
  EXPECT_TRUE(frag_more(w3));
  EXPECT_EQ(frag_len(w3), kFragLenMask);
  EXPECT_EQ(frag_seq(w3), 130u & kFragSeqMask);
  EXPECT_FALSE(frag_first(w3));
  // The first-fragment flag is independent of the other fields.
  const auto w4 = make_frag_word(false, 7, 5, /*first=*/true);
  EXPECT_TRUE(frag_first(w4));
  EXPECT_FALSE(frag_more(w4));
  EXPECT_EQ(frag_len(w4), 7u);
  EXPECT_EQ(frag_seq(w4), 5u);
}

TEST(Fragment, SequenceNumbersRunAcrossMessages) {
  std::uint32_t seq = 126;  // about to wrap
  auto f1 = fragment(to_bytes("one"), 1024, seq);
  auto f2 = fragment(to_bytes("two"), 1024, seq);
  ASSERT_EQ(f1.size(), 1u);
  ASSERT_EQ(f2.size(), 1u);
  EXPECT_EQ(seq, 0u);  // 126 -> 127 -> wrap to 0
  Reassembler r;
  // Pre-position the receiver at seq 125 by feeding a synthetic stream.
  std::uint32_t warm = 0;
  Bytes msg = to_bytes("warm");
  for (int i = 0; i < 126; ++i) {
    auto f = fragment(msg, 1024, warm);
    ASSERT_TRUE(r.feed(f[0]).ok());
    r.take();
  }
  auto a = r.feed(f1[0]);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a.value().complete);
  EXPECT_FALSE(a.value().dropped);
  EXPECT_EQ(r.take(), to_bytes("one"));
  auto b = r.feed(f2[0]);  // crosses the 127 -> 0 wrap
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b.value().complete);
  EXPECT_FALSE(b.value().dropped);
  EXPECT_EQ(r.take(), to_bytes("two"));
}

TEST(Fragment, DuplicateFrameIsDropped) {
  std::uint32_t seq = 0;
  auto frames = fragment(to_bytes("hello"), 1024, seq);
  ASSERT_EQ(frames.size(), 1u);
  Reassembler r;
  EXPECT_TRUE(r.feed(frames[0]).value().complete);
  EXPECT_EQ(r.take(), to_bytes("hello"));
  auto again = r.feed(frames[0]);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value().dropped);
  EXPECT_FALSE(again.value().complete);
  EXPECT_EQ(r.pending_bytes(), 0u);
}

TEST(Fragment, StaleFrameFromBehindIsDropped) {
  std::uint32_t seq = 0;
  Bytes msg = to_bytes("x");
  auto f0 = fragment(msg, 1024, seq);
  auto f1 = fragment(msg, 1024, seq);
  auto f2 = fragment(msg, 1024, seq);
  Reassembler r;
  EXPECT_TRUE(r.feed(f0[0]).value().complete);
  r.take();
  EXPECT_TRUE(r.feed(f1[0]).value().complete);
  r.take();
  EXPECT_TRUE(r.feed(f2[0]).value().complete);
  r.take();
  // A late copy of frame 1 (overtaken on the wire) must not be delivered.
  auto late = r.feed(f1[0]);
  ASSERT_TRUE(late.ok());
  EXPECT_TRUE(late.value().dropped);
}

TEST(Fragment, GapDiscardsPartialMessageAndResyncs) {
  // A three-fragment message loses its middle frame; the trailing frame
  // resyncs the stream, its bytes are discarded (no first frame claims
  // them — no garbage ever reaches ND), and the next message comes
  // through intact.
  constexpr std::size_t kMtu = 16;  // 8-byte first chunk, 12-byte rest
  std::uint32_t seq = 0;
  Bytes big(30, 0xCD);
  auto frames = fragment(big, kMtu, seq);
  ASSERT_EQ(frames.size(), 3u);
  Reassembler r;
  EXPECT_FALSE(r.feed(frames[0]).value().complete);
  // frames[1] lost.
  auto tail = r.feed(frames[2]);
  ASSERT_TRUE(tail.ok());
  EXPECT_TRUE(tail.value().resynced);  // partial accumulation discarded
  EXPECT_TRUE(tail.value().orphan);   // continuation with no head: dropped
  EXPECT_FALSE(tail.value().complete);
  EXPECT_EQ(r.pending_bytes(), 0u);
  auto next = fragment(to_bytes("fresh"), kMtu, seq);
  ASSERT_EQ(next.size(), 1u);
  auto got = r.feed(next[0]);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().complete);
  EXPECT_FALSE(got.value().resynced);
  EXPECT_EQ(r.take(), to_bytes("fresh"));
}

TEST(Fragment, InterruptedMessageRestartsAtNextFirstFrame) {
  // The sender abandons a message mid-stream (its tail was lost and
  // retransmission starts a fresh message with consecutive sequence
  // numbers): the new first frame evicts the stale partial.
  constexpr std::size_t kMtu = 16;
  std::uint32_t seq = 0;
  auto partial = fragment(Bytes(30, 0x11), kMtu, seq);
  ASSERT_EQ(partial.size(), 3u);
  Reassembler r;
  EXPECT_FALSE(r.feed(partial[0]).value().complete);
  EXPECT_FALSE(r.feed(partial[1]).value().complete);
  // partial[2] never arrives; instead a new message starts at seq 3.
  auto fresh = fragment(to_bytes("clean"), kMtu, seq);
  ASSERT_EQ(fresh.size(), 1u);
  auto got = r.feed(fresh[0]);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().resynced);  // old partial thrown away
  EXPECT_TRUE(got.value().complete);
  EXPECT_EQ(r.take(), to_bytes("clean"));
}

TEST(Fragment, TotalLengthMismatchDropsMessage) {
  // A corrupted chunk-length that still passes the per-frame size check
  // shows up as a total-length mismatch at end of message; the message
  // must be dropped, not delivered truncated.
  std::uint32_t seq = 0;
  auto frames = fragment(to_bytes("abcdef"), 1024, seq);
  ASSERT_EQ(frames.size(), 1u);
  // Rewrite the announced total (bytes 4..7 of the first frame header).
  Bytes evil = frames[0];
  evil[7] = static_cast<std::uint8_t>(evil[7] + 1);
  Reassembler r;
  auto fed = r.feed(evil);
  ASSERT_TRUE(fed.ok());
  EXPECT_FALSE(fed.value().complete);
  EXPECT_TRUE(fed.value().resynced);
  EXPECT_EQ(r.pending_bytes(), 0u);
  // The stream recovers at the next message.
  auto next = fragment(to_bytes("ok"), 1024, seq);
  auto got = r.feed(next[0]);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().complete);
  EXPECT_EQ(r.take(), to_bytes("ok"));
}

TEST(NdFrames, OpenRoundTrip) {
  NdOpen open;
  open.src_uadd = UAdd::temporary(42);
  open.src_arch = 3;
  open.src_phys = "tcp:vax1:5001";
  auto bytes = encode_nd_open(open);
  auto back = decode_nd(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().kind, NdKind::open);
  EXPECT_EQ(back.value().open.src_uadd, open.src_uadd);
  EXPECT_TRUE(back.value().open.src_uadd.is_temporary());
  EXPECT_EQ(back.value().open.src_arch, 3u);
  EXPECT_EQ(back.value().open.src_phys, "tcp:vax1:5001");
}

TEST(NdFrames, OpenAckRoundTrip) {
  NdOpenAck ack;
  ack.uadd = UAdd::permanent(1001);
  ack.arch = 1;
  auto back = decode_nd(encode_nd_open_ack(ack));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().kind, NdKind::open_ack);
  EXPECT_EQ(back.value().ack.uadd, ack.uadd);
}

TEST(NdFrames, PayloadCarriesBody) {
  Bytes body = to_bytes("ip envelope here");
  auto back = decode_nd(encode_nd_payload(body));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().kind, NdKind::payload);
  EXPECT_EQ(back.value().body, body);
}

TEST(NdFrames, BadMagicRejected) {
  Bytes bytes = encode_nd_payload(to_bytes("x"));
  bytes[0] ^= 0xFF;
  EXPECT_EQ(decode_nd(bytes).code(), Errc::bad_message);
}

TEST(NdFrames, BadVersionRejected) {
  Bytes bytes = encode_nd_payload(to_bytes("x"));
  bytes[7] ^= 0x01;  // low byte of the version word
  EXPECT_EQ(decode_nd(bytes).code(), Errc::bad_message);
}

TEST(IpFrames, DataRoundTrip) {
  auto env = decode_ip(encode_ip_data(777, to_bytes("lcm message")));
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env.value().kind, IpKind::data);
  EXPECT_EQ(env.value().ivc, 777u);
  EXPECT_EQ(to_string(env.value().body), "lcm message");
}

TEST(IpFrames, ExtendRoundTrip) {
  ExtendBody body;
  body.final_uadd = UAdd::permanent(1234);
  body.route = {{"lan-b", "tcp:gw2:5003"}, {"lan-c", "tcp:mc:5004"}};
  auto env = decode_ip(encode_ip_extend(9, body));
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env.value().kind, IpKind::extend);
  EXPECT_EQ(env.value().extend.final_uadd, body.final_uadd);
  ASSERT_EQ(env.value().extend.route.size(), 2u);
  EXPECT_EQ(env.value().extend.route[0].net, "lan-b");
  EXPECT_EQ(env.value().extend.route[1].phys, "tcp:mc:5004");
}

TEST(IpFrames, ExtendEmptyRoute) {
  ExtendBody body;
  body.final_uadd = UAdd::permanent(1);
  auto env = decode_ip(encode_ip_extend(3, body));
  ASSERT_TRUE(env.ok());
  EXPECT_TRUE(env.value().extend.route.empty());
}

TEST(IpFrames, ExtendFailCarriesError) {
  auto env = decode_ip(encode_ip_extend_fail(
      5, static_cast<std::uint32_t>(Errc::no_route), "no gateway"));
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env.value().kind, IpKind::extend_fail);
  EXPECT_EQ(env.value().errc, static_cast<std::uint32_t>(Errc::no_route));
  EXPECT_EQ(env.value().text, "no gateway");
}

TEST(IpFrames, ControlMessagesRoundTrip) {
  EXPECT_EQ(decode_ip(encode_ip_extend_ok(8)).value().kind, IpKind::extend_ok);
  EXPECT_EQ(decode_ip(encode_ip_teardown(8)).value().kind, IpKind::teardown);
  EXPECT_EQ(decode_ip(encode_ip_teardown(8)).value().ivc, 8u);
}

TEST(LcmFrames, HeaderRoundTrip) {
  LcmHeader h;
  h.kind = LcmKind::request;
  h.flags = kLcmFlagInternal;
  h.src = UAdd::permanent(1001);
  h.dst = UAdd::permanent(1);
  h.req_id = 42;
  h.mode = 1;
  h.src_arch = 2;
  Bytes payload = to_bytes("body");
  auto back = decode_lcm(encode_lcm(h, payload));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().header.kind, LcmKind::request);
  EXPECT_EQ(back.value().header.flags, kLcmFlagInternal);
  EXPECT_EQ(back.value().header.src, h.src);
  EXPECT_EQ(back.value().header.dst, h.dst);
  EXPECT_EQ(back.value().header.req_id, 42u);
  EXPECT_EQ(back.value().header.mode, 1u);
  EXPECT_EQ(back.value().header.src_arch, 2u);
  EXPECT_EQ(back.value().payload, payload);
}

TEST(LcmFrames, AllKindsRoundTrip) {
  for (LcmKind kind : {LcmKind::data, LcmKind::request, LcmKind::reply,
                       LcmKind::dgram}) {
    LcmHeader h;
    h.kind = kind;
    auto back = decode_lcm(encode_lcm(h, {}));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().header.kind, kind);
  }
}

TEST(LcmFrames, UnknownKindRejected) {
  LcmHeader h;
  h.kind = LcmKind::data;
  Bytes bytes = encode_lcm(h, {});
  bytes[3] = 99;  // low byte of the kind word
  EXPECT_EQ(decode_lcm(bytes).code(), Errc::bad_message);
}

TEST(Fuzz, TruncationsNeverCrash) {
  // Every prefix of every valid message must decode to an error or a
  // value — never crash or read out of bounds.
  NdOpen open;
  open.src_uadd = UAdd::permanent(5);
  open.src_arch = 1;
  open.src_phys = "tcp:m:1";
  ExtendBody eb;
  eb.final_uadd = UAdd::permanent(9);
  eb.route = {{"n1", "p1"}, {"n2", "p2"}};
  LcmHeader lh;
  lh.kind = LcmKind::reply;
  const std::vector<Bytes> messages = {
      encode_nd_open(open),
      encode_nd_open_ack({UAdd::permanent(2), 0}),
      encode_nd_payload(to_bytes("xyz")),
      encode_ip_extend(4, eb),
      encode_ip_data(4, to_bytes("d")),
      encode_lcm(lh, to_bytes("payload")),
  };
  for (const Bytes& msg : messages) {
    for (std::size_t cut = 0; cut < msg.size(); ++cut) {
      Bytes prefix(msg.begin(), msg.begin() + static_cast<long>(cut));
      (void)decode_nd(prefix);
      (void)decode_ip(prefix);
      (void)decode_lcm(prefix);
    }
  }
  SUCCEED();
}

TEST(Fuzz, RandomBytesNeverCrash) {
  Rng rng(31337);
  for (int i = 0; i < 2000; ++i) {
    Bytes junk(rng.next_below(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    (void)decode_nd(junk);
    (void)decode_ip(junk);
    (void)decode_lcm(junk);
    Reassembler r;
    (void)r.feed(junk);
  }
  SUCCEED();
}

TEST(Fuzz, BitFlipsNeverCrash) {
  ExtendBody eb;
  eb.final_uadd = UAdd::permanent(9);
  eb.route = {{"net-with-a-longer-name", "tcp:machine:12345"}};
  const Bytes base = encode_ip_extend(11, eb);
  Rng rng(4242);
  for (int i = 0; i < 2000; ++i) {
    Bytes mutated = base;
    mutated[rng.next_below(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    (void)decode_ip(mutated);
  }
  SUCCEED();
}

// ---------------------------------------------------------------- framed

LcmHeader sample_header(bool traced) {
  LcmHeader h;
  h.kind = LcmKind::request;
  h.flags = kLcmFlagInternal;
  h.src = UAdd::permanent(0x1234);
  h.dst = UAdd::permanent(0x5678);
  h.req_id = 77;
  h.mode = 2;
  h.src_arch = 3;
  if (traced) {
    h.flags |= kLcmFlagTraced;
    h.trace_hi = 0x0102030405060708ULL;
    h.trace_lo = 0x1112131415161718ULL;
    h.trace_parent = 0x2122232425262728ULL;
  }
  return h;
}

Bytes seeded_payload(std::size_t n) {
  Rng rng(n + 1);
  Bytes p(n);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.next());
  return p;
}

TEST(Framed, InPlaceHeadersMatchNestedEncoders) {
  constexpr std::size_t kMtu = 16 * 1024;  // simnet TCP
  constexpr std::uint64_t kIvc = 0xABCDEF0123ULL;
  for (const bool traced : {false, true}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, kMtu - 1,
                                kMtu + 1, std::size_t{64 * 1024}}) {
      SCOPED_TRACE(testing::Message() << "traced=" << traced << " n=" << n);
      const LcmHeader h = sample_header(traced);
      const Bytes payload = seeded_payload(n);
      const Bytes nested =
          encode_nd_payload(encode_ip_data(kIvc, encode_lcm(h, payload)));

      Framed m = frame_lcm(h, payload);
      EXPECT_EQ(m.off, kLcmHeadroom);
      EXPECT_EQ(to_bytes(m.view()), encode_lcm(h, payload));
      const std::uint8_t* const storage = m.buf.data();
      push_ip_data(m, kIvc);
      push_nd_payload(m);
      // Both prologues went into the headroom: same buffer, no headroom
      // left, and exactly the nested encoders' bytes.
      EXPECT_EQ(m.buf.data(), storage);
      EXPECT_EQ(m.off, 0u);
      EXPECT_EQ(to_bytes(m.view()), nested);

      // The frames sent from views of the one buffer are the frames the
      // copying fragmenter makes of the nested encoding.
      std::uint32_t seq = 0;
      std::vector<Bytes> from_spans;
      for (const FragSpan& sp : fragment_spans(m.view(), kMtu, seq)) {
        std::uint8_t hdr[kFragHeaderMax];
        Bytes f(hdr, hdr + encode_frag_header(sp, hdr));
        append(f, sp.chunk);
        from_spans.push_back(std::move(f));
      }
      EXPECT_EQ(from_spans, fragment(nested, kMtu));
    }
  }
}

TEST(Framed, ShortHeadroomGrowsOnce) {
  const Bytes lcm = encode_lcm(sample_header(false), to_bytes("body"));
  Framed m = framed_copy(lcm, 0);
  push_ip_data(m, 9);
  EXPECT_EQ(m.off, 0u);
  EXPECT_EQ(to_bytes(m.view()), encode_ip_data(9, lcm));
  Framed n = framed_copy(lcm, 5);
  push_ip_data(n, 9);
  push_nd_payload(n);
  EXPECT_EQ(to_bytes(n.view()), encode_nd_payload(encode_ip_data(9, lcm)));
}

TEST(Framed, RelayRewritesTheIvcWordInPlace) {
  const Bytes lcm = encode_lcm(sample_header(true), seeded_payload(300));
  Framed m = framed_copy(encode_ip_data(1, lcm), kNdPrologueSize);
  const std::uint8_t* const storage = m.buf.data();
  set_ip_ivc(m, 0x0102030405060708ULL);
  EXPECT_EQ(to_bytes(m.view()), encode_ip_data(0x0102030405060708ULL, lcm));
  push_nd_payload(m);
  EXPECT_EQ(m.buf.data(), storage);
  EXPECT_EQ(to_bytes(m.view()),
            encode_nd_payload(encode_ip_data(0x0102030405060708ULL, lcm)));
}

TEST(Framed, SingleFrameMessageIsAdoptedNotCopied) {
  const Bytes msg = seeded_payload(200);
  auto frames = fragment(msg, 1024);
  ASSERT_EQ(frames.size(), 1u);
  Bytes frame = frames[0];
  const std::uint8_t* const storage = frame.data();
  Reassembler r;
  auto fed = r.feed(std::move(frame));
  ASSERT_TRUE(fed.ok());
  ASSERT_TRUE(fed.value().complete);
  EXPECT_EQ(r.pending_bytes(), msg.size());
  Framed out = r.take_framed();
  EXPECT_EQ(out.buf.data(), storage);
  EXPECT_EQ(out.off, kFragHeaderMax);
  EXPECT_EQ(to_bytes(out.view()), msg);
  EXPECT_EQ(r.pending_bytes(), 0u);

  // The dedup rule still holds for an owned frame: a repeat is dropped.
  Bytes again = frames[0];
  auto dup = r.feed(std::move(again));
  ASSERT_TRUE(dup.ok());
  EXPECT_TRUE(dup.value().dropped);

  // take() hands the same message back in a buffer of its own.
  std::uint32_t seq = 1;
  auto next = fragment(msg, 1024, seq);
  ASSERT_TRUE(r.feed(std::move(next[0])).value().complete);
  EXPECT_EQ(r.take(), msg);
}

TEST(Framed, OwnedFramesOfALongMessageAppendAsBefore) {
  const Bytes msg = seeded_payload(5000);
  auto frames = fragment(msg, 1024);
  ASSERT_GT(frames.size(), 1u);
  Reassembler r;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    auto fed = r.feed(std::move(frames[i]));
    ASSERT_TRUE(fed.ok());
    EXPECT_EQ(fed.value().complete, i + 1 == frames.size());
  }
  Framed out = r.take_framed();
  EXPECT_EQ(out.off, 0u);
  EXPECT_EQ(out.buf, msg);
}

TEST(Framed, OwnedSingleFrameWithWrongTotalIsDropped) {
  auto frames = fragment(to_bytes("twelve bytes"), 1024);
  ASSERT_EQ(frames.size(), 1u);
  Bytes bad = frames[0];
  bad[7] ^= 0x01;  // low byte of the announced total length
  Reassembler r;
  auto fed = r.feed(std::move(bad));
  ASSERT_TRUE(fed.ok());
  EXPECT_FALSE(fed.value().complete);
  EXPECT_TRUE(fed.value().resynced);
  EXPECT_EQ(r.pending_bytes(), 0u);
}

/// The view decoders accept exactly what the copying decoders accept, and
/// decode the same fields; the copying decoders' bodies equal the views.
void expect_decoders_agree(BytesView in) {
  auto nd = decode_nd(in);
  auto ndv = decode_nd_view(in);
  ASSERT_EQ(nd.ok(), ndv.ok());
  if (nd.ok()) {
    EXPECT_EQ(nd.value().kind, ndv.value().kind);
    EXPECT_EQ(nd.value().open.src_uadd, ndv.value().open.src_uadd);
    EXPECT_EQ(nd.value().open.src_arch, ndv.value().open.src_arch);
    EXPECT_EQ(nd.value().open.src_phys, ndv.value().open.src_phys);
    EXPECT_EQ(nd.value().ack.uadd, ndv.value().ack.uadd);
    EXPECT_EQ(nd.value().ack.arch, ndv.value().ack.arch);
    EXPECT_EQ(nd.value().body, to_bytes(ndv.value().body));
  } else {
    EXPECT_EQ(nd.code(), ndv.code());
  }
  auto ip = decode_ip(in);
  auto ipv = decode_ip_view(in);
  ASSERT_EQ(ip.ok(), ipv.ok());
  if (ip.ok()) {
    EXPECT_EQ(ip.value().kind, ipv.value().kind);
    EXPECT_EQ(ip.value().ivc, ipv.value().ivc);
    EXPECT_EQ(ip.value().extend.final_uadd, ipv.value().extend.final_uadd);
    EXPECT_EQ(ip.value().extend.route.size(), ipv.value().extend.route.size());
    EXPECT_EQ(ip.value().errc, ipv.value().errc);
    EXPECT_EQ(ip.value().text, ipv.value().text);
    EXPECT_EQ(ip.value().body, to_bytes(ipv.value().body));
  } else {
    EXPECT_EQ(ip.code(), ipv.code());
  }
  auto lcm = decode_lcm(in);
  auto lcmv = decode_lcm_view(in);
  ASSERT_EQ(lcm.ok(), lcmv.ok());
  if (lcm.ok()) {
    const LcmHeader& a = lcm.value().header;
    const LcmHeader& b = lcmv.value().header;
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.flags, b.flags);
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(a.req_id, b.req_id);
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.src_arch, b.src_arch);
    EXPECT_EQ(a.trace_hi, b.trace_hi);
    EXPECT_EQ(a.trace_lo, b.trace_lo);
    EXPECT_EQ(a.trace_parent, b.trace_parent);
    EXPECT_EQ(lcm.value().payload, to_bytes(lcmv.value().payload));
  } else {
    EXPECT_EQ(lcm.code(), lcmv.code());
  }
}

TEST(Framed, ViewDecodersAcceptAndRejectLikeCopyingDecoders) {
  NdOpen open;
  open.src_uadd = UAdd::permanent(5);
  open.src_arch = 1;
  open.src_phys = "tcp:m:1";
  ExtendBody eb;
  eb.final_uadd = UAdd::permanent(9);
  eb.route = {{"n1", "p1"}, {"n2", "p2"}};
  const Bytes lcm_plain = encode_lcm(sample_header(false), to_bytes("pay"));
  const Bytes lcm_traced = encode_lcm(sample_header(true), to_bytes("load"));
  const std::vector<Bytes> messages = {
      encode_nd_open(open),
      encode_nd_open_ack({UAdd::permanent(2), 4}),
      encode_nd_payload(encode_ip_data(4, lcm_traced)),
      encode_ip_data(4, lcm_plain),
      encode_ip_extend(4, eb),
      encode_ip_extend_ok(5),
      encode_ip_extend_fail(6, 3, "no route"),
      encode_ip_teardown(7),
      lcm_plain,
      lcm_traced,
  };
  Rng rng(2718);
  for (const Bytes& msg : messages) {
    for (std::size_t cut = 0; cut <= msg.size(); ++cut) {
      expect_decoders_agree(BytesView(msg).first(cut));
    }
    for (int i = 0; i < 200; ++i) {
      Bytes mutated = msg;
      mutated[rng.next_below(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
      expect_decoders_agree(mutated);
    }
  }
}

}  // namespace
}  // namespace ntcs::core::wire
