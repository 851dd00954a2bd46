// Wire protocol for the click-stream ingest service: length-prefixed
// little-endian binary frames carrying click batches toward a detector
// and verdict batches back.
//
// Frame layout (all integers little-endian, regardless of host order):
//
//   u32  body_len           length of the body (type byte + payload);
//                           1 <= body_len <= kMaxFrameBody
//   u8   type               FrameType
//   ...  payload            body_len - 1 bytes, per-type layout below
//   u32  crc32              IEEE CRC-32 of the body (type + payload)
//
// Per-type payloads:
//
//   HELLO         u32 protocol_version            client -> server, first
//                                                 (1 = classic, 2 adds the
//                                                 CLICK_BATCH_V2 frame)
//   HELLO_ACK     u32 protocol_version,           server -> client; loop_id
//                 u32 loop_id                     is the event loop that
//                                                 accepted the connection
//   CLICK_BATCH   u64 seq, u32 count,             client -> server
//                 count x { u32 ad_id, u64 click_id, u64 t_us }  (20 B each)
//   VERDICT_BATCH u64 seq, u32 count,             server -> client; bit i
//                 ceil(count/8) bitmap bytes      (LSB-first) = duplicate
//                                                 OR rejected-by-blocklist
//   PING          u64 token                       either direction
//   PONG          u64 token                       echo of PING
//   DRAIN         (empty)                         client -> server: flush
//   DRAIN_ACK     u64 clicks, u64 duplicates      connection totals
//   STATS         (empty)                         client -> server: report
//   STATS_ACK     21 x u64 (see StatsReport)      server-wide sink stats;
//                                                 per-tier/enforcement
//                                                 fields are zero for
//                                                 untiered/unenforced
//                                                 sinks
//   CLICK_BATCH_V2 u64 seq, u32 count,            client -> server, only
//                 count x { u32 ad_id,            after a version-2 HELLO;
//                 u64 click_id, u64 t_us,         carries the source IP
//                 u32 source_ip }  (24 B each)    for wire enforcement
//   REPL_HELLO    u64 next_seq                    follower -> primary, after
//                                                 a version-3 HELLO: first
//                                                 replication sequence the
//                                                 follower still needs
//                                                 (1 = fresh follower)
//   REPL_BATCH    u64 seq, u32 count,             primary -> follower: one
//                 count x ClickRecordV2 (24 B)    ring entry of accepted
//                                                 clicks, always in v2
//                                                 record form (source_ip 0
//                                                 for v1-ingested clicks)
//   REPL_ACK      u64 seq                         follower -> primary:
//                                                 highest sequence applied
//   REPL_SNAPSHOT u64 base_seq, u32 chunk_index,  primary -> follower when
//                 u32 chunk_count, chunk bytes    the ring rotated past the
//                                                 follower: chunks of a sink
//                                                 snapshot whose state equals
//                                                 batches [1, base_seq)
//
// Decoding discipline (shared with core/snapshot_io.hpp): every length and
// count decoded from the wire is validated against a hard cap AND against
// the bytes actually present before anything is allocated or dereferenced.
// A malformed frame yields DecodeStatus::kError with a reason — never UB,
// never a read past the buffer, never an attacker-sized allocation; the
// server answers kError by closing the connection. tests/wire_fuzz_test.cpp
// mutation-fuzzes this contract.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "hashing/crc32.hpp"

namespace ppc::server::wire {

inline constexpr std::uint32_t kProtocolVersion = 1;
/// Version 2 adds CLICK_BATCH_V2 (per-click source IP). Servers accept
/// both; a v2 frame on a version-1 connection is a protocol error.
inline constexpr std::uint32_t kProtocolVersionV2 = 2;
/// Version 3 adds the REPL_* replication frames (and implies v2's
/// CLICK_BATCH_V2). Only a replication listener speaks them; an ingest
/// connection sending REPL_* is a protocol error.
inline constexpr std::uint32_t kProtocolVersionV3 = 3;

/// Hard cap on one frame's body. A CLICK_BATCH of the largest permitted
/// click count fits with room to spare; anything larger is malformed by
/// definition, so a corrupt length prefix can never make the server buffer
/// gigabytes for one connection.
inline constexpr std::size_t kMaxFrameBody = std::size_t{1} << 20;  // 1 MiB

/// Frame overhead around the body: u32 length prefix + u32 CRC trailer.
inline constexpr std::size_t kFrameOverhead = 8;

/// Cap on clicks per CLICK_BATCH / verdicts per VERDICT_BATCH. Chosen so
/// the batch the server coalesces stays micro-batch sized (the sweet spot
/// the offer_batch pipelines were tuned at), and well under what a
/// kMaxFrameBody frame could physically carry.
inline constexpr std::uint32_t kMaxClicksPerBatch = 32768;

/// Caps on the chunked REPL_SNAPSHOT transfer: a sink snapshot is split
/// into at most kMaxReplSnapshotChunks chunks of at most
/// kMaxReplSnapshotChunkBytes payload bytes each. The product (2 GiB)
/// matches core::detail::kMaxSectionBytes, so any snapshot the envelope
/// can legally hold fits; a forged chunk_count can never make a follower
/// pre-commit more than that.
inline constexpr std::uint32_t kMaxReplSnapshotChunks = 4096;
inline constexpr std::size_t kMaxReplSnapshotChunkBytes =
    std::size_t{512} * 1024;

/// One click on the wire: 20 bytes, see CLICK_BATCH above.
struct ClickRecord {
  std::uint32_t ad_id = 0;
  std::uint64_t click_id = 0;
  std::uint64_t t_us = 0;

  friend bool operator==(const ClickRecord&, const ClickRecord&) = default;
};
inline constexpr std::size_t kClickRecordBytes = 20;

/// One click on the version-2 wire: 24 bytes, adds the source IP the
/// enforcement layer keys reputations by (see CLICK_BATCH_V2 above).
struct ClickRecordV2 {
  std::uint32_t ad_id = 0;
  std::uint64_t click_id = 0;
  std::uint64_t t_us = 0;
  std::uint32_t source_ip = 0;

  friend bool operator==(const ClickRecordV2&, const ClickRecordV2&) = default;
};
inline constexpr std::size_t kClickRecordV2Bytes = 24;

enum class FrameType : std::uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kClickBatch = 3,
  kVerdictBatch = 4,
  kPing = 5,
  kPong = 6,
  kDrain = 7,
  kDrainAck = 8,
  kStats = 9,
  kStatsAck = 10,
  kClickBatchV2 = 11,
  kReplHello = 12,
  kReplBatch = 13,
  kReplAck = 14,
  kReplSnapshot = 15,
};

inline const char* frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kHelloAck: return "HELLO_ACK";
    case FrameType::kClickBatch: return "CLICK_BATCH";
    case FrameType::kVerdictBatch: return "VERDICT_BATCH";
    case FrameType::kPing: return "PING";
    case FrameType::kPong: return "PONG";
    case FrameType::kDrain: return "DRAIN";
    case FrameType::kDrainAck: return "DRAIN_ACK";
    case FrameType::kStats: return "STATS";
    case FrameType::kStatsAck: return "STATS_ACK";
    case FrameType::kClickBatchV2: return "CLICK_BATCH_V2";
    case FrameType::kReplHello: return "REPL_HELLO";
    case FrameType::kReplBatch: return "REPL_BATCH";
    case FrameType::kReplAck: return "REPL_ACK";
    case FrameType::kReplSnapshot: return "REPL_SNAPSHOT";
  }
  return "UNKNOWN";
}

// ---------------------------------------------------------------------------
// Little-endian packing. On little-endian hosts (the only targets we build
// for in practice) loads and stores compile to single unaligned mov
// instructions via memcpy; the byte-shift composition keeps big-endian
// hosts correct. Never a strict-aliasing or alignment violation either way.

/// Precondition (caller-checked): p points at >= 4 readable bytes.
inline std::uint32_t get_u32(const std::uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  } else {
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
  }
}

/// Precondition (caller-checked): p points at >= 8 readable bytes.
inline std::uint64_t get_u64(const std::uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  } else {
    return static_cast<std::uint64_t>(get_u32(p)) |
           static_cast<std::uint64_t>(get_u32(p + 4)) << 32;
  }
}

/// Precondition (caller-checked): p points at >= 4 writable bytes.
inline void set_u32(std::uint8_t* p, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(v));
  } else {
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v >> 16);
    p[3] = static_cast<std::uint8_t>(v >> 24);
  }
}

/// Precondition (caller-checked): p points at >= 8 writable bytes.
inline void set_u64(std::uint8_t* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(v));
  } else {
    set_u32(p, static_cast<std::uint32_t>(v));
    set_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
  }
}

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

// The frame checksum is hashing/crc32.hpp, shared with the snapshot
// sections; CLICK_BATCH bodies are CRC'd on both ends of every frame.
using hashing::crc32;
using hashing::crc32_bytewise;

// ---------------------------------------------------------------------------
// Encoding. All encoders append one complete frame to `out`, building the
// body directly inside `out` (one resize, then raw stores into the grown
// tail) — no intermediate payload vector, and the CRC is computed over the
// body bytes already in place.

namespace detail {
/// Grows `out` by `n` bytes and returns a pointer to the first new byte.
/// Valid until the next operation that reallocates `out`.
inline std::uint8_t* extend(std::vector<std::uint8_t>& out, std::size_t n) {
  const std::size_t old = out.size();
  out.resize(old + n);
  return out.data() + old;
}

/// Opens a frame of `payload_len` payload bytes in `out`: writes the length
/// prefix and type byte, then returns a pointer to the payload area. The
/// caller fills exactly `payload_len` bytes and calls seal_frame.
inline std::uint8_t* open_frame(std::vector<std::uint8_t>& out, FrameType type,
                                std::size_t payload_len) {
  std::uint8_t* p = extend(out, kFrameOverhead + 1 + payload_len);
  set_u32(p, static_cast<std::uint32_t>(1 + payload_len));
  p[4] = static_cast<std::uint8_t>(type);
  return p + 5;
}

/// CRCs the body (type byte + payload) and writes the trailer. `payload_len`
/// must match the open_frame call, and `out` must not have been resized in
/// between.
inline void seal_frame(std::vector<std::uint8_t>& out,
                       std::size_t payload_len) {
  const std::size_t body_len = 1 + payload_len;
  std::uint8_t* frame = out.data() + out.size() - kFrameOverhead - body_len;
  set_u32(frame + 4 + body_len, crc32({frame + 4, body_len}));
}
}  // namespace detail

inline void append_hello(std::vector<std::uint8_t>& out,
                         std::uint32_t version = kProtocolVersion) {
  std::uint8_t* p = detail::open_frame(out, FrameType::kHello, 4);
  set_u32(p, version);
  detail::seal_frame(out, 4);
}

/// `loop_id` identifies the event loop that accepted the connection.
inline void append_hello_ack(std::vector<std::uint8_t>& out,
                             std::uint32_t version = kProtocolVersion,
                             std::uint32_t loop_id = 0) {
  std::uint8_t* p = detail::open_frame(out, FrameType::kHelloAck, 8);
  set_u32(p, version);
  set_u32(p + 4, loop_id);
  detail::seal_frame(out, 8);
}

inline void append_click_batch(std::vector<std::uint8_t>& out,
                               std::uint64_t seq,
                               std::span<const ClickRecord> clicks) {
  const std::size_t payload_len = 12 + clicks.size() * kClickRecordBytes;
  std::uint8_t* p = detail::open_frame(out, FrameType::kClickBatch,
                                       payload_len);
  set_u64(p, seq);
  set_u32(p + 8, static_cast<std::uint32_t>(clicks.size()));
  p += 12;
  for (const ClickRecord& c : clicks) {
    set_u32(p, c.ad_id);
    set_u64(p + 4, c.click_id);
    set_u64(p + 12, c.t_us);
    p += kClickRecordBytes;
  }
  detail::seal_frame(out, payload_len);
}

/// Columnar variant for senders that keep clicks in flat arrays (the load
/// generator and bench harness): same frame bytes as the ClickRecord form.
inline void append_click_batch_cols(std::vector<std::uint8_t>& out,
                                    std::uint64_t seq, std::uint32_t count,
                                    const std::uint32_t* ads,
                                    const std::uint64_t* ids,
                                    const std::uint64_t* times) {
  const std::size_t payload_len =
      12 + static_cast<std::size_t>(count) * kClickRecordBytes;
  std::uint8_t* p = detail::open_frame(out, FrameType::kClickBatch,
                                       payload_len);
  set_u64(p, seq);
  set_u32(p + 8, count);
  p += 12;
  for (std::uint32_t i = 0; i < count; ++i) {
    set_u32(p, ads[i]);
    set_u64(p + 4, ids[i]);
    set_u64(p + 12, times[i]);
    p += kClickRecordBytes;
  }
  detail::seal_frame(out, payload_len);
}

inline void append_click_batch_v2(std::vector<std::uint8_t>& out,
                                  std::uint64_t seq,
                                  std::span<const ClickRecordV2> clicks) {
  const std::size_t payload_len = 12 + clicks.size() * kClickRecordV2Bytes;
  std::uint8_t* p = detail::open_frame(out, FrameType::kClickBatchV2,
                                       payload_len);
  set_u64(p, seq);
  set_u32(p + 8, static_cast<std::uint32_t>(clicks.size()));
  p += 12;
  for (const ClickRecordV2& c : clicks) {
    set_u32(p, c.ad_id);
    set_u64(p + 4, c.click_id);
    set_u64(p + 12, c.t_us);
    set_u32(p + 20, c.source_ip);
    p += kClickRecordV2Bytes;
  }
  detail::seal_frame(out, payload_len);
}

/// Columnar variant of the v2 batch (same frame bytes).
inline void append_click_batch_v2_cols(std::vector<std::uint8_t>& out,
                                       std::uint64_t seq, std::uint32_t count,
                                       const std::uint32_t* ads,
                                       const std::uint64_t* ids,
                                       const std::uint64_t* times,
                                       const std::uint32_t* sources) {
  const std::size_t payload_len =
      12 + static_cast<std::size_t>(count) * kClickRecordV2Bytes;
  std::uint8_t* p = detail::open_frame(out, FrameType::kClickBatchV2,
                                       payload_len);
  set_u64(p, seq);
  set_u32(p + 8, count);
  p += 12;
  for (std::uint32_t i = 0; i < count; ++i) {
    set_u32(p, ads[i]);
    set_u64(p + 4, ids[i]);
    set_u64(p + 12, times[i]);
    set_u32(p + 20, sources[i]);
    p += kClickRecordV2Bytes;
  }
  detail::seal_frame(out, payload_len);
}

/// `duplicate[i] != 0` sets bit i of the verdict bitmap (LSB-first).
inline void append_verdict_batch(std::vector<std::uint8_t>& out,
                                 std::uint64_t seq,
                                 std::span<const bool> duplicate) {
  const std::size_t bitmap_bytes = (duplicate.size() + 7) / 8;
  const std::size_t payload_len = 12 + bitmap_bytes;
  std::uint8_t* p = detail::open_frame(out, FrameType::kVerdictBatch,
                                       payload_len);
  set_u64(p, seq);
  set_u32(p + 8, static_cast<std::uint32_t>(duplicate.size()));
  p += 12;
  for (std::size_t byte = 0; byte < bitmap_bytes; ++byte) {
    std::uint8_t bits = 0;
    const std::size_t base = byte * 8;
    for (std::size_t bit = 0; bit < 8 && base + bit < duplicate.size(); ++bit) {
      if (duplicate[base + bit]) bits |= static_cast<std::uint8_t>(1u << bit);
    }
    p[byte] = bits;
  }
  detail::seal_frame(out, payload_len);
}

inline void append_ping(std::vector<std::uint8_t>& out, std::uint64_t token) {
  std::uint8_t* p = detail::open_frame(out, FrameType::kPing, 8);
  set_u64(p, token);
  detail::seal_frame(out, 8);
}

inline void append_pong(std::vector<std::uint8_t>& out, std::uint64_t token) {
  std::uint8_t* p = detail::open_frame(out, FrameType::kPong, 8);
  set_u64(p, token);
  detail::seal_frame(out, 8);
}

inline void append_drain(std::vector<std::uint8_t>& out) {
  detail::open_frame(out, FrameType::kDrain, 0);
  detail::seal_frame(out, 0);
}

inline void append_drain_ack(std::vector<std::uint8_t>& out,
                             std::uint64_t clicks, std::uint64_t duplicates) {
  std::uint8_t* p = detail::open_frame(out, FrameType::kDrainAck, 16);
  set_u64(p, clicks);
  set_u64(p + 8, duplicates);
  detail::seal_frame(out, 16);
}

/// STATS_ACK payload: the serving sink's operational accounting, u64
/// little-endian fields in declaration order (FP targets are IEEE-754
/// doubles carried via bit_cast). Untiered sinks fill the totals and
/// memory fields and leave the per-tier fields zero; tiered sinks mirror
/// adnet::TierStats, so an operator dashboard can watch memory and FPR
/// budgets per tier without touching the click path. Unenforced sinks
/// leave the five enforcement fields zero.
struct StatsReport {
  std::uint64_t clicks = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t memory_bits = 0;
  std::uint64_t memory_cap_bits = 0;
  std::uint64_t hot_ads = 0;
  std::uint64_t hot_memory_bits = 0;
  std::uint64_t hot_clicks = 0;
  std::uint64_t hot_duplicates = 0;
  std::uint64_t tail_memory_bits = 0;
  std::uint64_t tail_clicks = 0;
  std::uint64_t tail_duplicates = 0;
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  std::uint64_t promotion_deferrals = 0;
  double hot_target_fpr = 0.0;
  double tail_target_fpr = 0.0;
  /// Enforcement (EnforcingSink) accounting; zero without --enforce.
  std::uint64_t enforce_sources = 0;
  std::uint64_t enforce_flagged = 0;
  std::uint64_t enforce_discounted = 0;
  std::uint64_t enforce_blocked = 0;
  std::uint64_t enforce_rejected = 0;  ///< clicks rejected at the wire

  friend bool operator==(const StatsReport&, const StatsReport&) = default;
};
inline constexpr std::size_t kStatsReportBytes = 21 * 8;

inline void append_stats(std::vector<std::uint8_t>& out) {
  detail::open_frame(out, FrameType::kStats, 0);
  detail::seal_frame(out, 0);
}

inline void append_stats_ack(std::vector<std::uint8_t>& out,
                             const StatsReport& report) {
  std::uint8_t* p =
      detail::open_frame(out, FrameType::kStatsAck, kStatsReportBytes);
  set_u64(p, report.clicks);
  set_u64(p + 8, report.duplicates);
  set_u64(p + 16, report.memory_bits);
  set_u64(p + 24, report.memory_cap_bits);
  set_u64(p + 32, report.hot_ads);
  set_u64(p + 40, report.hot_memory_bits);
  set_u64(p + 48, report.hot_clicks);
  set_u64(p + 56, report.hot_duplicates);
  set_u64(p + 64, report.tail_memory_bits);
  set_u64(p + 72, report.tail_clicks);
  set_u64(p + 80, report.tail_duplicates);
  set_u64(p + 88, report.promotions);
  set_u64(p + 96, report.demotions);
  set_u64(p + 104, report.promotion_deferrals);
  set_u64(p + 112, std::bit_cast<std::uint64_t>(report.hot_target_fpr));
  set_u64(p + 120, std::bit_cast<std::uint64_t>(report.tail_target_fpr));
  set_u64(p + 128, report.enforce_sources);
  set_u64(p + 136, report.enforce_flagged);
  set_u64(p + 144, report.enforce_discounted);
  set_u64(p + 152, report.enforce_blocked);
  set_u64(p + 160, report.enforce_rejected);
  detail::seal_frame(out, kStatsReportBytes);
}

/// REPL_HELLO: the follower's catch-up cursor — the first replication
/// sequence it has NOT applied yet (1 for a fresh follower).
inline void append_repl_hello(std::vector<std::uint8_t>& out,
                              std::uint64_t next_seq) {
  std::uint8_t* p = detail::open_frame(out, FrameType::kReplHello, 8);
  set_u64(p, next_seq);
  detail::seal_frame(out, 8);
}

/// REPL_BATCH: one ring entry. `records` points at `count` packed
/// ClickRecordV2 wire records (24 bytes each) — the exact byte layout the
/// ring retains, so the primary streams without re-interleaving.
inline void append_repl_batch(std::vector<std::uint8_t>& out,
                              std::uint64_t seq, std::uint32_t count,
                              const std::uint8_t* records) {
  const std::size_t payload_len =
      12 + static_cast<std::size_t>(count) * kClickRecordV2Bytes;
  std::uint8_t* p = detail::open_frame(out, FrameType::kReplBatch,
                                       payload_len);
  set_u64(p, seq);
  set_u32(p + 8, count);
  std::memcpy(p + 12, records,
              static_cast<std::size_t>(count) * kClickRecordV2Bytes);
  detail::seal_frame(out, payload_len);
}

inline void append_repl_ack(std::vector<std::uint8_t>& out,
                            std::uint64_t seq) {
  std::uint8_t* p = detail::open_frame(out, FrameType::kReplAck, 8);
  set_u64(p, seq);
  detail::seal_frame(out, 8);
}

/// REPL_SNAPSHOT: chunk `chunk_index` of `chunk_count` of a sink snapshot
/// (the same envelope bytes save_sink_snapshot writes). The reassembled
/// snapshot's state equals replication batches [1, base_seq) applied.
inline void append_repl_snapshot(std::vector<std::uint8_t>& out,
                                 std::uint64_t base_seq,
                                 std::uint32_t chunk_index,
                                 std::uint32_t chunk_count,
                                 std::span<const std::uint8_t> chunk) {
  const std::size_t payload_len = 16 + chunk.size();
  std::uint8_t* p = detail::open_frame(out, FrameType::kReplSnapshot,
                                       payload_len);
  set_u64(p, base_seq);
  set_u32(p + 8, chunk_index);
  set_u32(p + 12, chunk_count);
  if (!chunk.empty()) std::memcpy(p + 16, chunk.data(), chunk.size());
  detail::seal_frame(out, payload_len);
}

// ---------------------------------------------------------------------------
// Decoding.

enum class DecodeStatus : std::uint8_t {
  kNeedMore,  ///< the buffer holds a valid prefix of a frame; read more
  kFrame,     ///< one well-formed frame extracted; `consumed` bytes used
  kError,     ///< malformed input; the connection must be closed
};

/// A decoded frame. `payload` points INTO the caller's buffer and is only
/// valid until the caller consumes or compacts it.
struct FrameView {
  FrameType type = FrameType::kHello;
  std::span<const std::uint8_t> payload;
};

/// Extracts the next frame from the front of `buf`. On kFrame, `consumed`
/// is the total frame size to drop from the buffer. On kError, `error`
/// names the defect (frame boundaries are unrecoverable after a framing
/// error, so callers close the connection rather than resynchronize).
inline DecodeStatus decode_frame(std::span<const std::uint8_t> buf,
                                 FrameView& frame, std::size_t& consumed,
                                 std::string& error) {
  consumed = 0;
  if (buf.size() < 4) return DecodeStatus::kNeedMore;
  const std::uint32_t body_len = get_u32(buf.data());
  if (body_len < 1) {
    error = "frame body length 0";
    return DecodeStatus::kError;
  }
  if (body_len > kMaxFrameBody) {
    error = "frame body length " + std::to_string(body_len) +
            " exceeds cap " + std::to_string(kMaxFrameBody);
    return DecodeStatus::kError;
  }
  const std::size_t total = 4 + static_cast<std::size_t>(body_len) + 4;
  if (buf.size() < total) return DecodeStatus::kNeedMore;
  const std::span<const std::uint8_t> body = buf.subspan(4, body_len);
  const std::uint32_t stated_crc = get_u32(buf.data() + 4 + body_len);
  if (crc32(body) != stated_crc) {
    error = "frame CRC mismatch";
    return DecodeStatus::kError;
  }
  const std::uint8_t type = body[0];
  if (type < static_cast<std::uint8_t>(FrameType::kHello) ||
      type > static_cast<std::uint8_t>(FrameType::kReplSnapshot)) {
    error = "unknown frame type " + std::to_string(type);
    return DecodeStatus::kError;
  }
  frame.type = static_cast<FrameType>(type);
  frame.payload = body.subspan(1);
  consumed = total;
  return DecodeStatus::kFrame;
}

// Typed payload parsers. Each validates the payload size (and any embedded
// count against the bytes actually present) before touching the data.

inline bool parse_version(std::span<const std::uint8_t> payload,
                          std::uint32_t& version, std::string& error) {
  if (payload.size() != 4) {
    error = "HELLO payload must be 4 bytes, got " +
            std::to_string(payload.size());
    return false;
  }
  version = get_u32(payload.data());
  return true;
}

/// HELLO_ACK: 8 bytes {version, loop_id}.
inline bool parse_hello_ack(std::span<const std::uint8_t> payload,
                            std::uint32_t& version, std::uint32_t& loop_id,
                            std::string& error) {
  if (payload.size() != 8) {
    error = "HELLO_ACK payload must be 8 bytes, got " +
            std::to_string(payload.size());
    return false;
  }
  version = get_u32(payload.data());
  loop_id = get_u32(payload.data() + 4);
  return true;
}

/// Zero-copy view of a CLICK_BATCH payload; `records` aliases the decode
/// buffer, so the view has the same lifetime as the FrameView it came from.
struct ClickBatchView {
  std::uint64_t seq = 0;
  std::uint32_t count = 0;
  const std::uint8_t* records = nullptr;

  ClickRecord record(std::size_t i) const {
    const std::uint8_t* p = records + i * kClickRecordBytes;
    return {get_u32(p), get_u64(p + 4), get_u64(p + 12)};
  }
};

/// Splits `count` wire-format click records (20 bytes each, validated by
/// parse_click_batch) into the three flat columns offer_batch consumes.
/// One linear pass over the record bytes; `records` may alias a connection
/// receive buffer — nothing is read outside [records, records + count*20).
inline void deinterleave_clicks(const std::uint8_t* records,
                                std::uint32_t count, std::uint32_t* ads,
                                std::uint64_t* ids, std::uint64_t* times) {
  const std::uint8_t* p = records;
  for (std::uint32_t i = 0; i < count; ++i) {
    ads[i] = get_u32(p);
    ids[i] = get_u64(p + 4);
    times[i] = get_u64(p + 12);
    p += kClickRecordBytes;
  }
}

inline bool parse_click_batch(std::span<const std::uint8_t> payload,
                              ClickBatchView& view, std::string& error) {
  if (payload.size() < 12) {
    error = "CLICK_BATCH payload shorter than its header";
    return false;
  }
  view.seq = get_u64(payload.data());
  view.count = get_u32(payload.data() + 8);
  if (view.count > kMaxClicksPerBatch) {
    error = "CLICK_BATCH count " + std::to_string(view.count) +
            " exceeds cap " + std::to_string(kMaxClicksPerBatch);
    return false;
  }
  const std::size_t expected =
      12 + static_cast<std::size_t>(view.count) * kClickRecordBytes;
  if (payload.size() != expected) {
    error = "CLICK_BATCH count " + std::to_string(view.count) +
            " disagrees with payload size " + std::to_string(payload.size());
    return false;
  }
  view.records = payload.data() + 12;
  return true;
}

/// Zero-copy view of a CLICK_BATCH_V2 payload (same lifetime rules as
/// ClickBatchView).
struct ClickBatchV2View {
  std::uint64_t seq = 0;
  std::uint32_t count = 0;
  const std::uint8_t* records = nullptr;

  ClickRecordV2 record(std::size_t i) const {
    const std::uint8_t* p = records + i * kClickRecordV2Bytes;
    return {get_u32(p), get_u64(p + 4), get_u64(p + 12), get_u32(p + 20)};
  }
};

/// Splits `count` v2 wire records (24 bytes each, validated by
/// parse_click_batch_v2) into four flat columns.
inline void deinterleave_clicks_v2(const std::uint8_t* records,
                                   std::uint32_t count, std::uint32_t* ads,
                                   std::uint64_t* ids, std::uint64_t* times,
                                   std::uint32_t* sources) {
  const std::uint8_t* p = records;
  for (std::uint32_t i = 0; i < count; ++i) {
    ads[i] = get_u32(p);
    ids[i] = get_u64(p + 4);
    times[i] = get_u64(p + 12);
    sources[i] = get_u32(p + 20);
    p += kClickRecordV2Bytes;
  }
}

inline bool parse_click_batch_v2(std::span<const std::uint8_t> payload,
                                 ClickBatchV2View& view, std::string& error) {
  if (payload.size() < 12) {
    error = "CLICK_BATCH_V2 payload shorter than its header";
    return false;
  }
  view.seq = get_u64(payload.data());
  view.count = get_u32(payload.data() + 8);
  if (view.count > kMaxClicksPerBatch) {
    error = "CLICK_BATCH_V2 count " + std::to_string(view.count) +
            " exceeds cap " + std::to_string(kMaxClicksPerBatch);
    return false;
  }
  const std::size_t expected =
      12 + static_cast<std::size_t>(view.count) * kClickRecordV2Bytes;
  if (payload.size() != expected) {
    error = "CLICK_BATCH_V2 count " + std::to_string(view.count) +
            " disagrees with payload size " + std::to_string(payload.size());
    return false;
  }
  view.records = payload.data() + 12;
  return true;
}

/// Zero-copy view of a VERDICT_BATCH payload (same lifetime rules).
struct VerdictBatchView {
  std::uint64_t seq = 0;
  std::uint32_t count = 0;
  const std::uint8_t* bitmap = nullptr;

  bool duplicate(std::size_t i) const {
    return (bitmap[i / 8] >> (i % 8)) & 1u;
  }
};

inline bool parse_verdict_batch(std::span<const std::uint8_t> payload,
                                VerdictBatchView& view, std::string& error) {
  if (payload.size() < 12) {
    error = "VERDICT_BATCH payload shorter than its header";
    return false;
  }
  view.seq = get_u64(payload.data());
  view.count = get_u32(payload.data() + 8);
  if (view.count > kMaxClicksPerBatch) {
    error = "VERDICT_BATCH count " + std::to_string(view.count) +
            " exceeds cap " + std::to_string(kMaxClicksPerBatch);
    return false;
  }
  const std::size_t expected = 12 + (static_cast<std::size_t>(view.count) + 7) / 8;
  if (payload.size() != expected) {
    error = "VERDICT_BATCH count " + std::to_string(view.count) +
            " disagrees with payload size " + std::to_string(payload.size());
    return false;
  }
  view.bitmap = payload.data() + 12;
  return true;
}

inline bool parse_token(std::span<const std::uint8_t> payload,
                        std::uint64_t& token, std::string& error) {
  if (payload.size() != 8) {
    error = "PING/PONG payload must be 8 bytes, got " +
            std::to_string(payload.size());
    return false;
  }
  token = get_u64(payload.data());
  return true;
}

inline bool parse_drain(std::span<const std::uint8_t> payload,
                        std::string& error) {
  if (!payload.empty()) {
    error = "DRAIN payload must be empty, got " +
            std::to_string(payload.size()) + " bytes";
    return false;
  }
  return true;
}

inline bool parse_drain_ack(std::span<const std::uint8_t> payload,
                            std::uint64_t& clicks, std::uint64_t& duplicates,
                            std::string& error) {
  if (payload.size() != 16) {
    error = "DRAIN_ACK payload must be 16 bytes, got " +
            std::to_string(payload.size());
    return false;
  }
  clicks = get_u64(payload.data());
  duplicates = get_u64(payload.data() + 8);
  return true;
}

inline bool parse_stats(std::span<const std::uint8_t> payload,
                        std::string& error) {
  if (!payload.empty()) {
    error = "STATS payload must be empty, got " +
            std::to_string(payload.size()) + " bytes";
    return false;
  }
  return true;
}

inline bool parse_stats_ack(std::span<const std::uint8_t> payload,
                            StatsReport& report, std::string& error) {
  if (payload.size() != kStatsReportBytes) {
    error = "STATS_ACK payload must be " + std::to_string(kStatsReportBytes) +
            " bytes, got " + std::to_string(payload.size());
    return false;
  }
  const std::uint8_t* p = payload.data();
  report.clicks = get_u64(p);
  report.duplicates = get_u64(p + 8);
  report.memory_bits = get_u64(p + 16);
  report.memory_cap_bits = get_u64(p + 24);
  report.hot_ads = get_u64(p + 32);
  report.hot_memory_bits = get_u64(p + 40);
  report.hot_clicks = get_u64(p + 48);
  report.hot_duplicates = get_u64(p + 56);
  report.tail_memory_bits = get_u64(p + 64);
  report.tail_clicks = get_u64(p + 72);
  report.tail_duplicates = get_u64(p + 80);
  report.promotions = get_u64(p + 88);
  report.demotions = get_u64(p + 96);
  report.promotion_deferrals = get_u64(p + 104);
  report.hot_target_fpr = std::bit_cast<double>(get_u64(p + 112));
  report.tail_target_fpr = std::bit_cast<double>(get_u64(p + 120));
  report.enforce_sources = get_u64(p + 128);
  report.enforce_flagged = get_u64(p + 136);
  report.enforce_discounted = get_u64(p + 144);
  report.enforce_blocked = get_u64(p + 152);
  report.enforce_rejected = get_u64(p + 160);
  return true;
}

inline bool parse_repl_hello(std::span<const std::uint8_t> payload,
                             std::uint64_t& next_seq, std::string& error) {
  if (payload.size() != 8) {
    error = "REPL_HELLO payload must be 8 bytes, got " +
            std::to_string(payload.size());
    return false;
  }
  next_seq = get_u64(payload.data());
  if (next_seq == 0) {
    error = "REPL_HELLO next_seq 0 (sequences start at 1)";
    return false;
  }
  return true;
}

inline bool parse_repl_ack(std::span<const std::uint8_t> payload,
                           std::uint64_t& seq, std::string& error) {
  if (payload.size() != 8) {
    error = "REPL_ACK payload must be 8 bytes, got " +
            std::to_string(payload.size());
    return false;
  }
  seq = get_u64(payload.data());
  return true;
}

/// Zero-copy view of a REPL_BATCH payload (same lifetime rules as
/// ClickBatchView); `records` is `count` packed ClickRecordV2 records.
struct ReplBatchView {
  std::uint64_t seq = 0;
  std::uint32_t count = 0;
  const std::uint8_t* records = nullptr;

  ClickRecordV2 record(std::size_t i) const {
    const std::uint8_t* p = records + i * kClickRecordV2Bytes;
    return {get_u32(p), get_u64(p + 4), get_u64(p + 12), get_u32(p + 20)};
  }
};

inline bool parse_repl_batch(std::span<const std::uint8_t> payload,
                             ReplBatchView& view, std::string& error) {
  if (payload.size() < 12) {
    error = "REPL_BATCH payload shorter than its header";
    return false;
  }
  view.seq = get_u64(payload.data());
  view.count = get_u32(payload.data() + 8);
  if (view.seq == 0) {
    error = "REPL_BATCH seq 0 (sequences start at 1)";
    return false;
  }
  if (view.count == 0) {
    error = "REPL_BATCH count 0 (empty ring entries are never sent)";
    return false;
  }
  if (view.count > kMaxClicksPerBatch) {
    error = "REPL_BATCH count " + std::to_string(view.count) +
            " exceeds cap " + std::to_string(kMaxClicksPerBatch);
    return false;
  }
  const std::size_t expected =
      12 + static_cast<std::size_t>(view.count) * kClickRecordV2Bytes;
  if (payload.size() != expected) {
    error = "REPL_BATCH count " + std::to_string(view.count) +
            " disagrees with payload size " + std::to_string(payload.size());
    return false;
  }
  view.records = payload.data() + 12;
  return true;
}

/// Zero-copy view of one REPL_SNAPSHOT chunk (same lifetime rules).
struct ReplSnapshotView {
  std::uint64_t base_seq = 0;
  std::uint32_t chunk_index = 0;
  std::uint32_t chunk_count = 0;
  std::span<const std::uint8_t> chunk;
};

inline bool parse_repl_snapshot(std::span<const std::uint8_t> payload,
                                ReplSnapshotView& view, std::string& error) {
  if (payload.size() < 16) {
    error = "REPL_SNAPSHOT payload shorter than its header";
    return false;
  }
  view.base_seq = get_u64(payload.data());
  view.chunk_index = get_u32(payload.data() + 8);
  view.chunk_count = get_u32(payload.data() + 12);
  if (view.base_seq == 0) {
    error = "REPL_SNAPSHOT base_seq 0 (sequences start at 1)";
    return false;
  }
  if (view.chunk_count == 0) {
    error = "REPL_SNAPSHOT chunk_count 0";
    return false;
  }
  if (view.chunk_count > kMaxReplSnapshotChunks) {
    error = "REPL_SNAPSHOT chunk_count " + std::to_string(view.chunk_count) +
            " exceeds cap " + std::to_string(kMaxReplSnapshotChunks);
    return false;
  }
  if (view.chunk_index >= view.chunk_count) {
    error = "REPL_SNAPSHOT chunk_index " + std::to_string(view.chunk_index) +
            " out of range for chunk_count " +
            std::to_string(view.chunk_count);
    return false;
  }
  const std::size_t chunk_bytes = payload.size() - 16;
  if (chunk_bytes > kMaxReplSnapshotChunkBytes) {
    error = "REPL_SNAPSHOT chunk of " + std::to_string(chunk_bytes) +
            " bytes exceeds cap " +
            std::to_string(kMaxReplSnapshotChunkBytes);
    return false;
  }
  view.chunk = payload.subspan(16);
  return true;
}

}  // namespace ppc::server::wire
