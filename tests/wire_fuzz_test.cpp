// Deterministic mutation fuzz of the wire protocol decoder: starting from
// valid frames of every type, apply truncations, byte flips, oversized
// lengths, bad counts and bad versions, and assert the decoder ALWAYS
// returns a clean status — kNeedMore for any strict prefix, kError (or a
// parse failure) for any corruption — and never claims to have consumed
// more bytes than exist. Run under sanitizers via tools/check.sh, this is
// the memory-safety gate for the server's input path.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "server/ingest_server.hpp"
#include "server/replication.hpp"
#include "server/wire.hpp"
#include "stream/rng.hpp"

namespace ppc::server::wire {
namespace {

std::vector<std::uint8_t> sample_click_batch(std::uint32_t count) {
  std::vector<ClickRecord> clicks(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    clicks[i] = {i % 7, 0x1234'5678'9abc'def0ull + i, 1'000'000ull + i * 250};
  }
  std::vector<std::uint8_t> out;
  append_click_batch(out, /*seq=*/42, clicks);
  return out;
}

std::vector<std::uint8_t> sample_click_batch_v2(std::uint32_t count) {
  std::vector<ClickRecordV2> clicks(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    clicks[i] = {i % 5, 0xfade'0000'0000'0000ull + i, 2'000'000ull + i * 125,
                 0x0a00'0001u + i};
  }
  std::vector<std::uint8_t> out;
  append_click_batch_v2(out, /*seq=*/43, clicks);
  return out;
}

/// `count` packed ClickRecordV2 wire records — the byte layout the
/// replication ring retains and REPL_BATCH carries verbatim.
std::vector<std::uint8_t> packed_v2_records(std::uint32_t count) {
  std::vector<std::uint8_t> bytes(count * kClickRecordV2Bytes);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint8_t* p = bytes.data() + i * kClickRecordV2Bytes;
    set_u32(p, i % 3);
    set_u64(p + 4, 0xabcd'0000'0000'0000ull + i);
    set_u64(p + 12, 3'000'000ull + i * 777);
    set_u32(p + 20, 0xc0a8'0001u + i);
  }
  return bytes;
}

std::vector<std::uint8_t> sample_repl_batch(std::uint32_t count) {
  const std::vector<std::uint8_t> records = packed_v2_records(count);
  std::vector<std::uint8_t> out;
  append_repl_batch(out, /*seq=*/9, count, records.data());
  return out;
}

std::vector<std::uint8_t> sample_repl_snapshot() {
  std::vector<std::uint8_t> chunk(100);
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    chunk[i] = static_cast<std::uint8_t>(i * 7);
  }
  std::vector<std::uint8_t> out;
  append_repl_snapshot(out, /*base_seq=*/55, /*chunk_index=*/1,
                       /*chunk_count=*/3, chunk);
  return out;
}

/// Recomputes and overwrites the trailing CRC so a forged body decodes as
/// a well-formed frame — forcing the TYPED parser (not the framing) to be
/// the layer that rejects it.
void rewrap_crc(std::vector<std::uint8_t>& frame) {
  const std::size_t body_len = frame.size() - kFrameOverhead;
  const std::uint32_t crc = crc32({frame.data() + 4, body_len});
  frame[frame.size() - 4] = static_cast<std::uint8_t>(crc);
  frame[frame.size() - 3] = static_cast<std::uint8_t>(crc >> 8);
  frame[frame.size() - 2] = static_cast<std::uint8_t>(crc >> 16);
  frame[frame.size() - 1] = static_cast<std::uint8_t>(crc >> 24);
}

/// Every frame type once, concatenated — the corpus the mutations start
/// from.
std::vector<std::vector<std::uint8_t>> corpus() {
  std::vector<std::vector<std::uint8_t>> frames;
  {
    std::vector<std::uint8_t> f;
    append_hello(f);
    frames.push_back(f);
  }
  {
    std::vector<std::uint8_t> f;
    append_hello_ack(f);
    frames.push_back(f);
  }
  frames.push_back(sample_click_batch(17));
  frames.push_back(sample_click_batch_v2(13));
  {
    std::vector<std::uint8_t> f;
    const bool verdicts[] = {true, false, false, true, true, false, true,
                             false, true, true, false};
    append_verdict_batch(f, /*seq=*/7, verdicts);
    frames.push_back(f);
  }
  {
    std::vector<std::uint8_t> f;
    append_ping(f, 0xfeedfacecafebeefull);
    frames.push_back(f);
  }
  {
    std::vector<std::uint8_t> f;
    append_pong(f, 1);
    frames.push_back(f);
  }
  {
    std::vector<std::uint8_t> f;
    append_drain(f);
    frames.push_back(f);
  }
  {
    std::vector<std::uint8_t> f;
    append_drain_ack(f, 1'000'000, 31337);
    frames.push_back(f);
  }
  {
    std::vector<std::uint8_t> f;
    append_stats(f);
    frames.push_back(f);
  }
  {
    std::vector<std::uint8_t> f;
    StatsReport report;
    report.clicks = 1'000'000;
    report.duplicates = 1234;
    report.memory_bits = 1ull << 30;
    report.memory_cap_bits = 1ull << 33;
    report.hot_ads = 17;
    report.hot_target_fpr = 1e-4;
    report.tail_target_fpr = 1e-3;
    append_stats_ack(f, report);
    frames.push_back(f);
  }
  {
    std::vector<std::uint8_t> f;
    append_repl_hello(f, /*next_seq=*/123);
    frames.push_back(f);
  }
  frames.push_back(sample_repl_batch(11));
  {
    std::vector<std::uint8_t> f;
    append_repl_ack(f, /*seq=*/122);
    frames.push_back(f);
  }
  frames.push_back(sample_repl_snapshot());
  return frames;
}

/// Decodes one buffer and asserts the structural invariants that must hold
/// for ARBITRARY input: consumed never exceeds the buffer, kFrame implies
/// a fully contained payload, statuses are from the enum.
DecodeStatus check_decode(const std::vector<std::uint8_t>& buf) {
  FrameView frame;
  std::size_t consumed = 0;
  std::string error;
  const DecodeStatus status = decode_frame(buf, frame, consumed, error);
  EXPECT_LE(consumed, buf.size());
  switch (status) {
    case DecodeStatus::kFrame: {
      EXPECT_GT(consumed, kFrameOverhead);
      // The payload view must lie entirely inside the buffer.
      const auto* begin = buf.data();
      const auto* end = buf.data() + buf.size();
      if (!frame.payload.empty()) {
        EXPECT_GE(frame.payload.data(), begin);
        EXPECT_LE(frame.payload.data() + frame.payload.size(), end);
      }
      // Typed parsers on the matching type must not read past the view
      // either (sanitizers verify); on foreign types they must fail
      // cleanly, not crash.
      std::uint32_t version;
      std::uint64_t a, b;
      std::string err;
      ClickBatchView clicks;
      VerdictBatchView verdicts;
      (void)parse_version(frame.payload, version, err);
      if (parse_click_batch(frame.payload, clicks, err)) {
        // The server deinterleaves each accepted batch straight out of
        // this view into its pending columns — so on EVERY accepted batch
        // (including mutated ones that happened to stay valid) the record
        // span must lie inside the buffer, and the columnar deinterleave
        // must agree with the row-wise accessor exactly.
        if (clicks.count > 0) {
          EXPECT_GE(clicks.records, begin);
          EXPECT_LE(clicks.records + clicks.count * kClickRecordBytes, end);
        }
        std::vector<std::uint32_t> ads(clicks.count);
        std::vector<std::uint64_t> ids(clicks.count);
        std::vector<std::uint64_t> times(clicks.count);
        deinterleave_clicks(clicks.records, clicks.count, ads.data(),
                            ids.data(), times.data());
        for (std::uint32_t i = 0; i < clicks.count; ++i) {
          const ClickRecord rec = clicks.record(i);
          EXPECT_EQ(ads[i], rec.ad_id);
          EXPECT_EQ(ids[i], rec.click_id);
          EXPECT_EQ(times[i], rec.t_us);
        }
      }
      ClickBatchV2View clicks_v2;
      if (parse_click_batch_v2(frame.payload, clicks_v2, err)) {
        if (clicks_v2.count > 0) {
          EXPECT_GE(clicks_v2.records, begin);
          EXPECT_LE(clicks_v2.records + clicks_v2.count * kClickRecordV2Bytes,
                    end);
        }
        std::vector<std::uint32_t> ads(clicks_v2.count);
        std::vector<std::uint64_t> ids(clicks_v2.count);
        std::vector<std::uint64_t> times(clicks_v2.count);
        std::vector<std::uint32_t> sources(clicks_v2.count);
        deinterleave_clicks_v2(clicks_v2.records, clicks_v2.count, ads.data(),
                               ids.data(), times.data(), sources.data());
        for (std::uint32_t i = 0; i < clicks_v2.count; ++i) {
          const ClickRecordV2 rec = clicks_v2.record(i);
          EXPECT_EQ(ads[i], rec.ad_id);
          EXPECT_EQ(ids[i], rec.click_id);
          EXPECT_EQ(times[i], rec.t_us);
          EXPECT_EQ(sources[i], rec.source_ip);
        }
      }
      if (parse_verdict_batch(frame.payload, verdicts, err)) {
        for (std::uint32_t i = 0; i < verdicts.count; ++i) {
          (void)verdicts.duplicate(i);
        }
      }
      (void)parse_token(frame.payload, a, err);
      (void)parse_drain(frame.payload, err);
      (void)parse_drain_ack(frame.payload, a, b, err);
      StatsReport stats;
      (void)parse_stats(frame.payload, err);
      (void)parse_stats_ack(frame.payload, stats, err);
      (void)parse_repl_hello(frame.payload, a, err);
      (void)parse_repl_ack(frame.payload, a, err);
      ReplBatchView repl;
      if (parse_repl_batch(frame.payload, repl, err)) {
        // The follower deinterleaves straight out of this view — the
        // record span must lie inside the buffer on every accepted parse.
        EXPECT_GE(repl.records, begin);
        EXPECT_LE(repl.records + repl.count * kClickRecordV2Bytes, end);
        for (std::uint32_t i = 0; i < repl.count; ++i) {
          (void)repl.record(i);
        }
      }
      ReplSnapshotView snap;
      if (parse_repl_snapshot(frame.payload, snap, err)) {
        if (!snap.chunk.empty()) {
          EXPECT_GE(snap.chunk.data(), begin);
          EXPECT_LE(snap.chunk.data() + snap.chunk.size(), end);
        }
      }
      break;
    }
    case DecodeStatus::kError:
      EXPECT_FALSE(error.empty());
      break;
    case DecodeStatus::kNeedMore:
      break;
  }
  return status;
}

TEST(WireFuzz, ValidFramesRoundTrip) {
  for (const auto& frame : corpus()) {
    EXPECT_EQ(check_decode(frame), DecodeStatus::kFrame);
  }
}

TEST(WireFuzz, EveryTruncationIsNeedMoreOrCleanError) {
  for (const auto& frame : corpus()) {
    for (std::size_t keep = 0; keep < frame.size(); ++keep) {
      const std::vector<std::uint8_t> prefix(frame.begin(),
                                             frame.begin() + keep);
      // A strict prefix must never decode as a complete frame.
      EXPECT_NE(check_decode(prefix), DecodeStatus::kFrame)
          << "truncation at byte " << keep << " decoded as a full frame";
    }
  }
}

TEST(WireFuzz, EverySingleByteFlipIsRejectedOrResynced) {
  for (const auto& frame : corpus()) {
    for (std::size_t pos = 0; pos < frame.size(); ++pos) {
      for (const std::uint8_t delta : {0x01, 0x80, 0xff}) {
        std::vector<std::uint8_t> mutated = frame;
        mutated[pos] = static_cast<std::uint8_t>(mutated[pos] ^ delta);
        // Any flip inside the body breaks the CRC; a flip in the length
        // prefix yields kNeedMore (larger length), kError (cap) or a CRC
        // mismatch. What must NEVER happen: the frame decoding as valid.
        EXPECT_NE(check_decode(mutated), DecodeStatus::kFrame)
            << "flip of byte " << pos << " by " << int(delta)
            << " slipped through the CRC";
      }
    }
  }
}

TEST(WireFuzz, OversizedLengthPrefixIsRejectedNotBuffered) {
  std::vector<std::uint8_t> buf;
  put_u32(buf, static_cast<std::uint32_t>(kMaxFrameBody + 1));
  buf.push_back(static_cast<std::uint8_t>(FrameType::kPing));
  EXPECT_EQ(check_decode(buf), DecodeStatus::kError);

  buf.clear();
  put_u32(buf, 0xffffffffu);
  EXPECT_EQ(check_decode(buf), DecodeStatus::kError);

  buf.clear();
  put_u32(buf, 0);  // body must hold at least the type byte
  EXPECT_EQ(check_decode(buf), DecodeStatus::kError);
}

TEST(WireFuzz, UnknownFrameTypeIsRejected) {
  // 16 is the first unassigned type id (15 = REPL_SNAPSHOT is the last
  // valid).
  for (const std::uint8_t type : {std::uint8_t{0}, std::uint8_t{16},
                                  std::uint8_t{0x7f}, std::uint8_t{0xff}}) {
    std::vector<std::uint8_t> body{type, 1, 2, 3};
    std::vector<std::uint8_t> buf;
    put_u32(buf, static_cast<std::uint32_t>(body.size()));
    buf.insert(buf.end(), body.begin(), body.end());
    put_u32(buf, crc32(body));
    EXPECT_EQ(check_decode(buf), DecodeStatus::kError);
  }
}

TEST(WireFuzz, ClickCountDisagreeingWithPayloadIsRejected) {
  // Take a valid CLICK_BATCH and rewrite the embedded count (fixing the
  // CRC so only the count check can reject it).
  const std::vector<std::uint8_t> frame = sample_click_batch(8);
  for (const std::uint32_t bad_count :
       {0u, 7u, 9u, 1000u, kMaxClicksPerBatch + 1, 0xffffffffu}) {
    std::vector<std::uint8_t> mutated = frame;
    // Layout: len(4) type(1) seq(8) count(4) ...
    mutated[13] = static_cast<std::uint8_t>(bad_count);
    mutated[14] = static_cast<std::uint8_t>(bad_count >> 8);
    mutated[15] = static_cast<std::uint8_t>(bad_count >> 16);
    mutated[16] = static_cast<std::uint8_t>(bad_count >> 24);
    const std::size_t body_len = mutated.size() - kFrameOverhead;
    const std::uint32_t fixed_crc =
        crc32({mutated.data() + 4, body_len});
    mutated[mutated.size() - 4] = static_cast<std::uint8_t>(fixed_crc);
    mutated[mutated.size() - 3] = static_cast<std::uint8_t>(fixed_crc >> 8);
    mutated[mutated.size() - 2] = static_cast<std::uint8_t>(fixed_crc >> 16);
    mutated[mutated.size() - 1] = static_cast<std::uint8_t>(fixed_crc >> 24);

    FrameView view;
    std::size_t consumed = 0;
    std::string error;
    ASSERT_EQ(decode_frame(mutated, view, consumed, error),
              DecodeStatus::kFrame);  // framing is intact...
    ClickBatchView batch;
    EXPECT_FALSE(parse_click_batch(view.payload, batch, error))
        << "count " << bad_count << " accepted";  // ...the parse is not
    EXPECT_FALSE(error.empty());
  }
}

TEST(WireFuzz, ClickCountV2DisagreeingWithPayloadIsRejected) {
  // Same forged-count discipline for the 24-byte v2 records: rewrite the
  // embedded count, fix the CRC, and require the typed parser (not the
  // framing) to reject.
  const std::vector<std::uint8_t> frame = sample_click_batch_v2(8);
  for (const std::uint32_t bad_count :
       {0u, 7u, 9u, 1000u, kMaxClicksPerBatch + 1, 0xffffffffu}) {
    std::vector<std::uint8_t> mutated = frame;
    // Layout: len(4) type(1) seq(8) count(4) ...
    mutated[13] = static_cast<std::uint8_t>(bad_count);
    mutated[14] = static_cast<std::uint8_t>(bad_count >> 8);
    mutated[15] = static_cast<std::uint8_t>(bad_count >> 16);
    mutated[16] = static_cast<std::uint8_t>(bad_count >> 24);
    const std::size_t body_len = mutated.size() - kFrameOverhead;
    const std::uint32_t fixed_crc = crc32({mutated.data() + 4, body_len});
    mutated[mutated.size() - 4] = static_cast<std::uint8_t>(fixed_crc);
    mutated[mutated.size() - 3] = static_cast<std::uint8_t>(fixed_crc >> 8);
    mutated[mutated.size() - 2] = static_cast<std::uint8_t>(fixed_crc >> 16);
    mutated[mutated.size() - 1] = static_cast<std::uint8_t>(fixed_crc >> 24);

    FrameView view;
    std::size_t consumed = 0;
    std::string error;
    ASSERT_EQ(decode_frame(mutated, view, consumed, error),
              DecodeStatus::kFrame);
    ClickBatchV2View batch;
    EXPECT_FALSE(parse_click_batch_v2(view.payload, batch, error))
        << "count " << bad_count << " accepted";
    EXPECT_FALSE(error.empty());
  }
}

TEST(WireFuzz, ClickBatchV2RecordLayoutIsExact) {
  // One record, hand-assembled offsets: ad@0, id@4, t@12, source@20.
  std::vector<std::uint8_t> buf;
  const ClickRecordV2 rec{0x01020304u, 0x1112131415161718ull,
                          0x2122232425262728ull, 0xc0a80a01u};
  append_click_batch_v2(buf, /*seq=*/1, {&rec, 1});
  FrameView frame;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(decode_frame(buf, frame, consumed, error), DecodeStatus::kFrame);
  ASSERT_EQ(frame.type, FrameType::kClickBatchV2);
  ASSERT_EQ(frame.payload.size(), 12u + kClickRecordV2Bytes);
  ClickBatchV2View view;
  ASSERT_TRUE(parse_click_batch_v2(frame.payload, view, error));
  const ClickRecordV2 back = view.record(0);
  EXPECT_EQ(back.ad_id, rec.ad_id);
  EXPECT_EQ(back.click_id, rec.click_id);
  EXPECT_EQ(back.t_us, rec.t_us);
  EXPECT_EQ(back.source_ip, rec.source_ip);
}

TEST(WireFuzz, RandomGarbageNeverDecodesAsFrame) {
  stream::Rng rng(20260805);
  for (int round = 0; round < 2000; ++round) {
    const std::size_t len = rng.below(256);
    std::vector<std::uint8_t> garbage(len);
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(rng.below(256));
    }
    // 32 bits of CRC make an accidental pass astronomically unlikely; the
    // invariant checked is that whatever status comes back, no OOB access
    // happens and consumed stays in bounds (check_decode asserts both).
    (void)check_decode(garbage);
  }
}

TEST(WireFuzz, PipelinedFramesDecodeInSequence) {
  // Several frames in one buffer must decode one at a time with exact
  // consumed offsets — the server relies on this for TCP stream reassembly.
  std::vector<std::uint8_t> buf;
  append_hello(buf);
  const std::size_t first = buf.size();
  append_ping(buf, 99);
  const std::size_t second = buf.size() - first;
  append_drain(buf);

  FrameView frame;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(decode_frame(buf, frame, consumed, error), DecodeStatus::kFrame);
  EXPECT_EQ(frame.type, FrameType::kHello);
  EXPECT_EQ(consumed, first);
  std::vector<std::uint8_t> rest(buf.begin() + consumed, buf.end());
  ASSERT_EQ(decode_frame(rest, frame, consumed, error), DecodeStatus::kFrame);
  EXPECT_EQ(frame.type, FrameType::kPing);
  EXPECT_EQ(consumed, second);
  rest.erase(rest.begin(), rest.begin() + consumed);
  ASSERT_EQ(decode_frame(rest, frame, consumed, error), DecodeStatus::kFrame);
  EXPECT_EQ(frame.type, FrameType::kDrain);
  EXPECT_EQ(consumed, rest.size());
}

TEST(WireFuzz, SlicedCrcMatchesBytewiseReference) {
  // The slicing-by-8 kernel must be bit-identical to the canonical
  // byte-at-a-time IEEE CRC-32 at every length and alignment — lengths
  // around the 8-byte fold boundary and odd offsets are the cases a
  // sliced implementation gets wrong first.
  stream::Rng rng(20260808);
  std::vector<std::uint8_t> data(4096 + 16);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  for (const std::size_t len : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 15u, 16u, 17u,
                                63u, 64u, 65u, 255u, 1000u, 4096u}) {
    for (const std::size_t off : {0u, 1u, 3u, 5u, 7u}) {
      const std::span<const std::uint8_t> view(data.data() + off, len);
      EXPECT_EQ(crc32(view), crc32_bytewise(view))
          << "len " << len << " offset " << off;
    }
  }
  for (int round = 0; round < 500; ++round) {
    const std::size_t len = rng.below(2048);
    const std::size_t off = rng.below(8);
    const std::span<const std::uint8_t> view(data.data() + off, len);
    ASSERT_EQ(crc32(view), crc32_bytewise(view))
        << "len " << len << " offset " << off;
  }
}

TEST(WireFuzz, HelloAckCarriesLoopIdAndRefusesLegacyPayload) {
  // The 8-byte HELLO_ACK: version + accepting loop id.
  std::vector<std::uint8_t> buf;
  append_hello_ack(buf, kProtocolVersion, /*loop_id=*/3);
  FrameView frame;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(decode_frame(buf, frame, consumed, error), DecodeStatus::kFrame);
  ASSERT_EQ(frame.type, FrameType::kHelloAck);
  std::uint32_t version = 0, loop_id = 99;
  ASSERT_TRUE(parse_hello_ack(frame.payload, version, loop_id, error));
  EXPECT_EQ(version, kProtocolVersion);
  EXPECT_EQ(loop_id, 3u);

  // The 4-byte payload of servers that predate multiple loops frames
  // cleanly but is refused by name: no server in this tree writes it.
  std::vector<std::uint8_t> body{
      static_cast<std::uint8_t>(FrameType::kHelloAck)};
  put_u32(body, kProtocolVersion);
  std::vector<std::uint8_t> legacy;
  put_u32(legacy, static_cast<std::uint32_t>(body.size()));
  legacy.insert(legacy.end(), body.begin(), body.end());
  put_u32(legacy, crc32(body));
  ASSERT_EQ(decode_frame(legacy, frame, consumed, error),
            DecodeStatus::kFrame);
  error.clear();
  EXPECT_FALSE(parse_hello_ack(frame.payload, version, loop_id, error));
  EXPECT_EQ(error, "HELLO_ACK payload must be 8 bytes, got 4");

  // Any other payload size is rejected cleanly.
  for (const std::size_t n : {0u, 1u, 3u, 5u, 7u, 9u, 16u}) {
    const std::vector<std::uint8_t> bad(n, 0xab);
    error.clear();
    EXPECT_FALSE(parse_hello_ack(bad, version, loop_id, error));
    EXPECT_FALSE(error.empty());
  }
}

TEST(WireFuzz, ColumnarEncoderMatchesRowEncoder) {
  // append_click_batch_cols (the columnar encoder benchmark clients send
  // with) must emit byte-identical frames to the row-wise encoder.
  for (const std::uint32_t count : {0u, 1u, 7u, 100u}) {
    std::vector<ClickRecord> rows(count);
    std::vector<std::uint32_t> ads(count);
    std::vector<std::uint64_t> ids(count), times(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      rows[i] = {i * 3 + 1, 0xdead'0000'0000'0000ull + i, 500ull + i};
      ads[i] = rows[i].ad_id;
      ids[i] = rows[i].click_id;
      times[i] = rows[i].t_us;
    }
    std::vector<std::uint8_t> row_frame, col_frame;
    append_click_batch(row_frame, /*seq=*/11, rows);
    append_click_batch_cols(col_frame, /*seq=*/11, count, ads.data(),
                            ids.data(), times.data());
    EXPECT_EQ(row_frame, col_frame) << "count " << count;
  }
}

TEST(WireFuzz, StatsReportRoundTrip) {
  StatsReport report;
  report.clicks = 0x0102'0304'0506'0708ull;
  report.duplicates = 42;
  report.memory_bits = 1ull << 33;
  report.memory_cap_bits = (1ull << 33) + 1;
  report.hot_ads = 1000;
  report.hot_memory_bits = 77;
  report.hot_clicks = 88;
  report.hot_duplicates = 99;
  report.tail_memory_bits = 111;
  report.tail_clicks = 222;
  report.tail_duplicates = 333;
  report.promotions = 444;
  report.demotions = 555;
  report.promotion_deferrals = 666;
  report.hot_target_fpr = 1.25e-4;   // exact in binary: survives bit_cast
  report.tail_target_fpr = 0.03125;
  report.enforce_sources = 777;
  report.enforce_flagged = 11;
  report.enforce_discounted = 5;
  report.enforce_blocked = 3;
  report.enforce_rejected = 888;
  std::vector<std::uint8_t> buf;
  append_stats_ack(buf, report);
  FrameView frame;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(decode_frame(buf, frame, consumed, error), DecodeStatus::kFrame);
  ASSERT_EQ(frame.type, FrameType::kStatsAck);
  ASSERT_EQ(frame.payload.size(), kStatsReportBytes);
  StatsReport parsed;
  ASSERT_TRUE(parse_stats_ack(frame.payload, parsed, error));
  EXPECT_EQ(parsed, report);

  // The 128-byte payload of servers that predate enforcement is refused
  // by name: no server in this tree writes it.
  error.clear();
  EXPECT_FALSE(parse_stats_ack(frame.payload.first(128), parsed, error));
  EXPECT_EQ(error, "STATS_ACK payload must be 168 bytes, got 128");

  // Any payload size other than the fixed layout is rejected cleanly.
  for (const std::size_t n : {0u, 1u, 64u, 127u, 129u, 167u, 169u, 256u}) {
    const std::vector<std::uint8_t> bad(n, 0xcd);
    error.clear();
    EXPECT_FALSE(parse_stats_ack(bad, parsed, error)) << "size " << n;
    EXPECT_FALSE(error.empty());
  }
  // STATS itself carries no payload; anything else is rejected.
  EXPECT_TRUE(parse_stats({}, error));
  const std::vector<std::uint8_t> nonempty{1};
  EXPECT_FALSE(parse_stats(nonempty, error));
}

TEST(WireFuzz, VerdictBitmapRoundTrip) {
  stream::Rng rng(7);
  for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 64u, 1000u}) {
    // span<const bool> needs contiguous bools; vector<bool> is packed,
    // so stage through a bool array.
    std::unique_ptr<bool[]> verdicts(new bool[n]);
    for (std::size_t i = 0; i < n; ++i) verdicts[i] = rng.below(2) != 0;
    std::vector<std::uint8_t> buf;
    append_verdict_batch(buf, 5, {verdicts.get(), n});
    FrameView frame;
    std::size_t consumed = 0;
    std::string error;
    ASSERT_EQ(decode_frame(buf, frame, consumed, error), DecodeStatus::kFrame);
    VerdictBatchView view;
    ASSERT_TRUE(parse_verdict_batch(frame.payload, view, error));
    ASSERT_EQ(view.seq, 5u);
    ASSERT_EQ(view.count, n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(view.duplicate(i), verdicts[i]) << "bit " << i;
    }
  }
}

void poke_u32(std::vector<std::uint8_t>& buf, std::size_t off,
              std::uint32_t v) {
  buf[off] = static_cast<std::uint8_t>(v);
  buf[off + 1] = static_cast<std::uint8_t>(v >> 8);
  buf[off + 2] = static_cast<std::uint8_t>(v >> 16);
  buf[off + 3] = static_cast<std::uint8_t>(v >> 24);
}

void poke_u64(std::vector<std::uint8_t>& buf, std::size_t off,
              std::uint64_t v) {
  poke_u32(buf, off, static_cast<std::uint32_t>(v));
  poke_u32(buf, off + 4, static_cast<std::uint32_t>(v >> 32));
}

TEST(WireFuzz, ReplHelloAndAckRejectBadSizesWithNamedErrors) {
  std::uint64_t seq = 0;
  std::string error;
  for (const std::size_t n : {0u, 1u, 4u, 7u, 9u, 16u}) {
    const std::vector<std::uint8_t> bad(n, 0x5a);
    error.clear();
    EXPECT_FALSE(parse_repl_hello(bad, seq, error)) << "size " << n;
    EXPECT_NE(error.find("REPL_HELLO"), std::string::npos) << error;
    error.clear();
    EXPECT_FALSE(parse_repl_ack(bad, seq, error)) << "size " << n;
    EXPECT_NE(error.find("REPL_ACK"), std::string::npos) << error;
  }
  // A zero cursor is structurally 8 bytes but semantically impossible —
  // sequences start at 1 — and must be named as such.
  const std::vector<std::uint8_t> zeros(8, 0);
  error.clear();
  EXPECT_FALSE(parse_repl_hello(zeros, seq, error));
  EXPECT_NE(error.find("next_seq 0"), std::string::npos) << error;
  // REPL_ACK 0 is legal: a fresh follower that has applied nothing.
  EXPECT_TRUE(parse_repl_ack(zeros, seq, error));
  EXPECT_EQ(seq, 0u);
}

TEST(WireFuzz, ReplBatchForgedSeqAndCountAreRejectedByParserNotFraming) {
  // Rewrite the embedded sequence/count and REWRAP the CRC: framing stays
  // intact, so only the typed parser's field checks stand between a forged
  // ring entry and the follower's sink.
  const std::vector<std::uint8_t> frame = sample_repl_batch(8);
  struct Forgery {
    bool is_count;
    std::uint64_t value;
    const char* named;
  };
  const Forgery forgeries[] = {
      {false, 0, "seq 0"},
      {true, 0, "count 0"},
      {true, 7, "disagrees with payload size"},
      {true, 9, "disagrees with payload size"},
      {true, kMaxClicksPerBatch + 1, "exceeds cap"},
      {true, 0xffffffffu, "exceeds cap"},
  };
  for (const auto& forged : forgeries) {
    std::vector<std::uint8_t> mutated = frame;
    // Layout: len(4) type(1) seq(8) count(4) records…
    if (forged.is_count) {
      poke_u32(mutated, 13, static_cast<std::uint32_t>(forged.value));
    } else {
      poke_u64(mutated, 5, forged.value);
    }
    rewrap_crc(mutated);
    FrameView view;
    std::size_t consumed = 0;
    std::string error;
    ASSERT_EQ(decode_frame(mutated, view, consumed, error),
              DecodeStatus::kFrame);
    ReplBatchView batch;
    EXPECT_FALSE(parse_repl_batch(view.payload, batch, error))
        << "forged " << (forged.is_count ? "count " : "seq ") << forged.value
        << " accepted";
    EXPECT_NE(error.find(forged.named), std::string::npos)
        << "error \"" << error << "\" does not name the forged field";
  }
}

TEST(WireFuzz, ReplSnapshotForgedHeaderIsRejectedByParserNotFraming) {
  const std::vector<std::uint8_t> frame = sample_repl_snapshot();
  struct Forgery {
    std::size_t off;  ///< base_seq@5, chunk_index@13, chunk_count@17
    bool is_u64;
    std::uint64_t value;
    const char* named;
  };
  const Forgery forgeries[] = {
      {5, true, 0, "base_seq 0"},
      {17, false, 0, "chunk_count 0"},
      {17, false, kMaxReplSnapshotChunks + 1, "exceeds cap"},
      {13, false, 3, "out of range"},   // chunk_index == chunk_count
      {13, false, 99, "out of range"},  // far past it
  };
  for (const auto& forged : forgeries) {
    std::vector<std::uint8_t> mutated = frame;
    if (forged.is_u64) {
      poke_u64(mutated, forged.off, forged.value);
    } else {
      poke_u32(mutated, forged.off,
               static_cast<std::uint32_t>(forged.value));
    }
    rewrap_crc(mutated);
    FrameView view;
    std::size_t consumed = 0;
    std::string error;
    ASSERT_EQ(decode_frame(mutated, view, consumed, error),
              DecodeStatus::kFrame);
    ReplSnapshotView snap;
    EXPECT_FALSE(parse_repl_snapshot(view.payload, snap, error))
        << "forged header field at offset " << forged.off << " accepted";
    EXPECT_NE(error.find(forged.named), std::string::npos)
        << "error \"" << error << "\" does not name the forged field";
  }
}

/// Minimal sink for driving a ReplicationApplier directly: counts what it
/// is offered and flags nothing.
class CountingSink final : public ClickSink {
 public:
  void offer(std::span<const std::uint32_t>, std::span<const core::ClickId>,
             std::span<const std::uint64_t> times,
             std::span<bool> out) override {
    clicks += times.size();
    std::fill(out.begin(), out.end(), false);
  }
  std::string describe() const override { return "counting"; }
  std::uint64_t clicks = 0;
};

std::uint64_t apply_frame(ReplicationApplier& applier,
                          const std::vector<std::uint8_t>& frame,
                          std::string& error) {
  FrameView view;
  std::size_t consumed = 0;
  std::string decode_err;
  EXPECT_EQ(decode_frame(frame, view, consumed, decode_err),
            DecodeStatus::kFrame)
      << decode_err;
  return applier.on_frame(view.type, view.payload, error) ? 1 : 0;
}

TEST(WireFuzz, ReplApplierRefusesProtocolViolationsAtNamedFields) {
  // The applier is the layer BEHIND the parser: frames that are perfectly
  // well-formed on the wire must still be refused when they violate the
  // replication state machine — and every refusal must leave the cursor at
  // its last consistent value.
  CountingSink sink;
  ReplicationApplier applier(sink);
  std::string error;

  // Two legitimate batches advance the cursor to 3.
  const std::vector<std::uint8_t> records = packed_v2_records(4);
  for (std::uint64_t seq = 1; seq <= 2; ++seq) {
    std::vector<std::uint8_t> f;
    append_repl_batch(f, seq, 4, records.data());
    ASSERT_EQ(apply_frame(applier, f, error), 1u) << error;
  }
  EXPECT_EQ(applier.next_seq(), 3u);
  EXPECT_EQ(sink.clicks, 8u);

  // A gap (seq 5) and a replay (seq 2) are both refused by sequence.
  for (const std::uint64_t forged_seq : {5ull, 2ull}) {
    std::vector<std::uint8_t> f;
    append_repl_batch(f, forged_seq, 4, records.data());
    error.clear();
    EXPECT_EQ(apply_frame(applier, f, error), 0u);
    EXPECT_NE(error.find("REPL_BATCH seq " + std::to_string(forged_seq) +
                         ", expected 3"),
              std::string::npos)
        << error;
    EXPECT_EQ(applier.next_seq(), 3u);
    EXPECT_EQ(sink.clicks, 8u);
  }

  // A snapshot may not rewind the cursor.
  {
    std::vector<std::uint8_t> f;
    append_repl_snapshot(f, /*base_seq=*/2, 0, 2, records);
    error.clear();
    EXPECT_EQ(apply_frame(applier, f, error), 0u);
    EXPECT_NE(error.find("base_seq 2 behind applier cursor 3"),
              std::string::npos)
        << error;
  }
  // A transfer may not start mid-stream.
  {
    std::vector<std::uint8_t> f;
    append_repl_snapshot(f, /*base_seq=*/10, 1, 2, records);
    error.clear();
    EXPECT_EQ(apply_frame(applier, f, error), 0u);
    EXPECT_NE(error.find("begins at chunk 1"), std::string::npos) << error;
  }

  // Open a transfer, then violate it three ways: a batch mid-transfer, a
  // header change, and an out-of-order chunk. Each refusal names its field;
  // the first two also abandon the transfer.
  const auto open_transfer = [&] {
    std::vector<std::uint8_t> f;
    append_repl_snapshot(f, /*base_seq=*/10, 0, 3, records);
    error.clear();
    ASSERT_EQ(apply_frame(applier, f, error), 1u) << error;
    ASSERT_TRUE(applier.in_snapshot());
  };
  open_transfer();
  {
    std::vector<std::uint8_t> f;
    append_repl_batch(f, 3, 4, records.data());
    error.clear();
    EXPECT_EQ(apply_frame(applier, f, error), 0u);
    EXPECT_NE(error.find("during a snapshot transfer"), std::string::npos)
        << error;
    applier.reset_transfer();  // what the follower does on any refusal
  }
  open_transfer();
  {
    std::vector<std::uint8_t> f;
    append_repl_snapshot(f, /*base_seq=*/11, 1, 3, records);
    error.clear();
    EXPECT_EQ(apply_frame(applier, f, error), 0u);
    EXPECT_NE(error.find("header changed mid-transfer"), std::string::npos)
        << error;
    EXPECT_FALSE(applier.in_snapshot());  // self-resetting refusal
  }
  open_transfer();
  {
    std::vector<std::uint8_t> f;
    append_repl_snapshot(f, /*base_seq=*/10, 2, 3, records);
    error.clear();
    EXPECT_EQ(apply_frame(applier, f, error), 0u);
    EXPECT_NE(error.find("chunk_index 2, expected 1"), std::string::npos)
        << error;
    EXPECT_FALSE(applier.in_snapshot());
  }

  // A completed transfer of garbage bytes fails envelope validation; the
  // cursor must NOT jump to the forged base_seq.
  open_transfer();
  for (std::uint32_t chunk = 1; chunk <= 2; ++chunk) {
    std::vector<std::uint8_t> f;
    append_repl_snapshot(f, /*base_seq=*/10, chunk, 3, records);
    error.clear();
    const std::uint64_t ok = apply_frame(applier, f, error);
    if (chunk < 2) {
      EXPECT_EQ(ok, 1u) << error;
    } else {
      EXPECT_EQ(ok, 0u);
      EXPECT_NE(error.find("REPL_SNAPSHOT restore failed"),
                std::string::npos)
          << error;
    }
  }
  EXPECT_EQ(applier.next_seq(), 3u);
  EXPECT_EQ(applier.snapshots_applied(), 0u);

  // Ingest/control frames have no business on a replication connection.
  {
    std::vector<std::uint8_t> f;
    append_ping(f, 1);
    error.clear();
    EXPECT_EQ(apply_frame(applier, f, error), 0u);
    EXPECT_NE(error.find("unexpected frame PING"), std::string::npos)
        << error;
  }

  // After every refusal above, the applier still accepts the batch the
  // cursor actually expects — refusals are rejections, not corruption.
  std::vector<std::uint8_t> f;
  append_repl_batch(f, 3, 4, records.data());
  error.clear();
  EXPECT_EQ(apply_frame(applier, f, error), 1u) << error;
  EXPECT_EQ(applier.next_seq(), 4u);
  EXPECT_EQ(sink.clicks, 12u);
}

}  // namespace
}  // namespace ppc::server::wire
