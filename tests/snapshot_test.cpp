// Tests for detector snapshotting: a reloaded detector must be verdict-
// for-verdict identical to one that never stopped, for both algorithms,
// both window bases, and at arbitrary checkpoints (including mid-cleaning
// and mid-sub-window).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adnet/detector_pool.hpp"
#include "adnet/tiered_detector_pool.hpp"
#include "core/age_partitioned_bloom_filter.hpp"
#include "core/group_bloom_filter.hpp"
#include "core/sharded_detector.hpp"
#include "core/snapshot_io.hpp"
#include "core/timing_bloom_filter.hpp"
#include "detector_test_util.hpp"
#include "enforce/reputation_ledger.hpp"
#include "hashing/fnv.hpp"
#include "server/enforcing_sink.hpp"
#include "server/ingest_server.hpp"
#include "stream/rng.hpp"

namespace ppc::core {
namespace {

GroupBloomFilter::Options gbf_opts() {
  GroupBloomFilter::Options o;
  o.bits_per_subfilter = 1 << 14;
  o.hash_count = 5;
  o.seed = 9;
  return o;
}

TimingBloomFilter::Options tbf_opts() {
  TimingBloomFilter::Options o;
  o.entries = 1 << 14;
  o.hash_count = 5;
  o.seed = 9;
  return o;
}

struct CheckpointCase {
  std::uint64_t checkpoint_at;
};

class GbfSnapshotTest : public ::testing::TestWithParam<CheckpointCase> {};

TEST_P(GbfSnapshotTest, ResumesIdenticallyAfterReload) {
  const auto w = WindowSpec::jumping_count(512, 4);
  GroupBloomFilter reference(w, gbf_opts());
  GroupBloomFilter live(w, gbf_opts());
  const auto ids = testutil::make_id_stream(8000, 0.3, 1024, 77);

  std::unique_ptr<GroupBloomFilter> resumed;
  for (std::uint64_t i = 0; i < ids.size(); ++i) {
    if (i == GetParam().checkpoint_at) {
      std::stringstream buffer;
      live.save(buffer);
      resumed = std::make_unique<GroupBloomFilter>(w, gbf_opts());
      resumed->restore(buffer);
    }
    const bool expected = reference.offer(ids[i]);
    DuplicateDetector& d = resumed ? *resumed : live;
    ASSERT_EQ(d.offer(ids[i]), expected) << "diverged at arrival " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Checkpoints, GbfSnapshotTest,
    ::testing::Values(CheckpointCase{0},     // before any arrival
                      CheckpointCase{1},     // right after the first
                      CheckpointCase{511},   // just before a jump
                      CheckpointCase{512},   // right at a jump
                      CheckpointCase{1300},  // mid-sub-window, mid-cleaning
                      CheckpointCase{4096}));

class TbfSnapshotTest : public ::testing::TestWithParam<CheckpointCase> {};

TEST_P(TbfSnapshotTest, ResumesIdenticallyAfterReload) {
  const auto w = WindowSpec::sliding_count(512);
  TimingBloomFilter reference(w, tbf_opts());
  TimingBloomFilter live(w, tbf_opts());
  const auto ids = testutil::make_id_stream(8000, 0.3, 1024, 78);

  std::unique_ptr<TimingBloomFilter> resumed;
  for (std::uint64_t i = 0; i < ids.size(); ++i) {
    if (i == GetParam().checkpoint_at) {
      std::stringstream buffer;
      live.save(buffer);
      resumed = std::make_unique<TimingBloomFilter>(w, tbf_opts());
      resumed->restore(buffer);
    }
    const bool expected = reference.offer(ids[i]);
    DuplicateDetector& d = resumed ? *resumed : live;
    ASSERT_EQ(d.offer(ids[i]), expected) << "diverged at arrival " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Checkpoints, TbfSnapshotTest,
    ::testing::Values(CheckpointCase{0}, CheckpointCase{1},
                      CheckpointCase{511}, CheckpointCase{512},
                      CheckpointCase{1023},  // wraparound boundary region
                      CheckpointCase{4096}));

TEST(TbfSnapshot, TimeBasedStateSurvives) {
  const auto w = WindowSpec::sliding_time(1'000'000, 10'000);
  TimingBloomFilter live(w, tbf_opts());
  live.offer(5, 100'000);
  live.offer(6, 200'000);

  std::stringstream buffer;
  live.save(buffer);
  TimingBloomFilter resumed(w, tbf_opts());
  resumed.restore(buffer);

  // In-window duplicates still flagged, expiry clock still correct.
  EXPECT_TRUE(resumed.offer(5, 300'000));
  EXPECT_FALSE(resumed.offer(5, 5'000'000));
}

TEST(GbfSnapshot, TimeBasedStateSurvives) {
  const auto w = WindowSpec::jumping_time(1'000'000, 4, 10'000);
  GroupBloomFilter live(w, gbf_opts());
  live.offer(5, 100'000);

  std::stringstream buffer;
  live.save(buffer);
  GroupBloomFilter resumed(w, gbf_opts());
  resumed.restore(buffer);
  EXPECT_TRUE(resumed.offer(5, 300'000));
  EXPECT_FALSE(resumed.offer(5, 10'000'000));
}

TEST(Snapshot, RejectsGarbageAndWrongMagic) {
  TimingBloomFilter tbf(WindowSpec::sliding_count(64), tbf_opts());
  std::stringstream garbage("this is not a snapshot at all, sorry");
  EXPECT_THROW(tbf.restore(garbage), std::runtime_error);

  // A GBF snapshot is not a TBF snapshot.
  GroupBloomFilter gbf(WindowSpec::jumping_count(64, 2), gbf_opts());
  std::stringstream buffer;
  gbf.save(buffer);
  EXPECT_THROW(tbf.restore(buffer), std::runtime_error);
}

// A corrupt word-count header must surface as runtime_error BEFORE any
// allocation is attempted — not as a multi-GiB std::vector resize (or
// bad_alloc / OOM-kill) followed by EOF. The TBF layout puts the word
// count at a fixed offset: magic + 5 window fields + 5 option fields +
// 5 state fields = 16 u64s = 128 bytes.
TEST(Snapshot, RejectsForgedWordCountHeader) {
  TimingBloomFilter tbf(WindowSpec::sliding_count(64), tbf_opts());
  tbf.offer(42);
  std::stringstream buffer;
  tbf.save(buffer);
  std::string bytes = buffer.str();
  ASSERT_GT(bytes.size(), 136u);

  constexpr std::size_t kWordCountOffset = 128;
  // Absurd count (fails the absolute cap).
  std::string forged = bytes;
  const std::uint64_t huge = ~std::uint64_t{0} >> 3;
  std::memcpy(forged.data() + kWordCountOffset, &huge, 8);
  std::stringstream forged_in(forged);
  EXPECT_THROW(tbf.restore(forged_in), std::runtime_error);

  // Plausible-looking count that still exceeds the remaining bytes
  // (fails the remaining-stream bound).
  forged = bytes;
  const std::uint64_t oversize =
      (bytes.size() - kWordCountOffset) / 8 + 1000;
  std::memcpy(forged.data() + kWordCountOffset, &oversize, 8);
  std::stringstream oversize_in(forged);
  EXPECT_THROW(tbf.restore(oversize_in), std::runtime_error);

  // Unchanged bytes still load — the forgery, not the check, is at fault.
  std::stringstream intact(bytes);
  EXPECT_NO_THROW(tbf.restore(intact));
}

TEST(Snapshot, RejectsTruncatedInput) {
  TimingBloomFilter tbf(WindowSpec::sliding_count(64), tbf_opts());
  std::stringstream buffer;
  tbf.save(buffer);
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(tbf.restore(truncated), std::runtime_error);
}

TEST(Snapshot, InstanceRestoreRejectsMismatchedParameters) {
  const auto w = WindowSpec::jumping_count(512, 4);
  GroupBloomFilter saved(w, gbf_opts());
  saved.offer(1);
  std::stringstream buffer;
  saved.save(buffer);
  const std::string bytes = buffer.str();

  {  // different window length
    GroupBloomFilter other(WindowSpec::jumping_count(1024, 4), gbf_opts());
    std::stringstream in(bytes);
    EXPECT_THROW(other.restore(in), std::runtime_error);
  }
  {  // different filter sizing
    auto o = gbf_opts();
    o.bits_per_subfilter = 1 << 13;
    GroupBloomFilter other(w, o);
    std::stringstream in(bytes);
    EXPECT_THROW(other.restore(in), std::runtime_error);
  }
  {  // different seed — indices would be garbage even though sizes match
    auto o = gbf_opts();
    o.seed = 10;
    GroupBloomFilter other(w, o);
    std::stringstream in(bytes);
    EXPECT_THROW(other.restore(in), std::runtime_error);
  }
  {  // matching instance restores fine
    GroupBloomFilter other(w, gbf_opts());
    std::stringstream in(bytes);
    EXPECT_NO_THROW(other.restore(in));
    EXPECT_TRUE(other.offer(1));  // saved click visible after restore
  }
}

// ---------------------------------------------------------------------------
// Mutation fuzz of the composite (sectioned, CRC-checked) snapshot formats
// — ShardedDetector and DetectorPool — in the wire_fuzz_test.cpp style:
// every truncation point, every byte flipped with several deltas, forged
// counts with RECOMPUTED checksums, and trailing garbage must all throw
// (never crash, never silently accept).
// ---------------------------------------------------------------------------

/// Tiny sharded GBF so the full snapshot is ~1 KB and the per-byte fuzz
/// loops stay fast.
std::unique_ptr<ShardedDetector> make_tiny_sharded(
    std::size_t shards, std::uint64_t window_len = 256,
    std::uint64_t seed = 9) {
  return std::make_unique<ShardedDetector>(shards, [&](std::size_t) {
    GroupBloomFilter::Options o;
    o.bits_per_subfilter = 1 << 10;
    o.hash_count = 3;
    o.seed = seed;
    return std::make_unique<GroupBloomFilter>(
        WindowSpec::jumping_count(window_len / shards, 4), o);
  });
}

std::string saved_bytes(DuplicateDetector& d) {
  std::stringstream buffer;
  d.save(buffer);
  return buffer.str();
}

TEST(ShardedSnapshotFuzz, EveryTruncationRejected) {
  auto sharded = make_tiny_sharded(2);
  const auto ids = testutil::make_id_stream(600, 0.3, 256, 5);
  for (const auto id : ids) sharded->offer(id);
  const std::string bytes = saved_bytes(*sharded);

  auto target = make_tiny_sharded(2);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::stringstream in(bytes.substr(0, len));
    EXPECT_THROW(target->restore(in), std::exception) << "length " << len;
  }
  std::stringstream intact(bytes);
  EXPECT_NO_THROW(target->restore(intact));
}

TEST(ShardedSnapshotFuzz, EveryByteFlipRejected) {
  auto sharded = make_tiny_sharded(2);
  const auto ids = testutil::make_id_stream(600, 0.3, 256, 6);
  for (const auto id : ids) sharded->offer(id);
  const std::string bytes = saved_bytes(*sharded);

  auto target = make_tiny_sharded(2);
  // Any single corrupted byte must be caught: the section header fields by
  // their explicit validation, the payload (shard headers, cursors, filter
  // words — all of it) by the CRC.
  for (const std::uint8_t delta : {0x01, 0x80, 0xff}) {
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
      std::string mutated = bytes;
      mutated[pos] = static_cast<char>(mutated[pos] ^ delta);
      std::stringstream in(mutated);
      EXPECT_THROW(target->restore(in), std::exception)
          << "byte " << pos << " ^ " << int{delta};
    }
  }
}

/// Re-wraps a forged payload with a VALID header + CRC, so only the
/// payload-level validation stands between the forgery and the filter.
std::string rewrap(std::uint64_t magic, const std::string& payload) {
  std::stringstream out;
  detail::write_section(out, magic, payload);
  return out.str();
}

/// Extracts the (already CRC-verified) payload from a saved section.
std::string unwrap(std::uint64_t magic, const std::string& bytes,
                   const char* what) {
  std::stringstream in(bytes);
  return detail::read_section(in, magic, what);
}

TEST(ShardedSnapshotFuzz, ForgedShardCountWithValidCrcRejected) {
  auto sharded = make_tiny_sharded(2);
  sharded->offer(1);
  std::string payload =
      unwrap(detail::kShardedMagic, saved_bytes(*sharded), "fuzz");

  auto target = make_tiny_sharded(2);
  for (const std::uint64_t forged_count : {0ull, 1ull, 3ull, 4096ull,
                                           ~0ull}) {
    std::string forged = payload;
    std::memcpy(forged.data(), &forged_count, 8);
    std::stringstream in(rewrap(detail::kShardedMagic, forged));
    EXPECT_THROW(target->restore(in), std::exception)
        << "count " << forged_count;
  }
}

// Every filter header keeps the word that once named the index strategy;
// double hashing, written as 0, is the only derivation left. A forged word
// must be refused by restore(), by field and value, and never become a
// filter whose probes miss the bits it holds.
TEST(Snapshot, RejectsNonZeroStrategyWord) {
  GroupBloomFilter gbf(WindowSpec::jumping_count(512, 4), gbf_opts());
  TimingBloomFilter tbf(WindowSpec::sliding_count(512), tbf_opts());
  const AgePartitionedBloomFilter::Options apbf_opts{
      .bits_per_slice = 1 << 12, .consecutive = 4, .generations = 4,
      .seed = 9};
  AgePartitionedBloomFilter apbf(WindowSpec::sliding_count(512), apbf_opts);
  for (ClickId id = 0; id < 500; ++id) {
    gbf.offer(id);
    tbf.offer(id);
    apbf.offer(id);
  }
  const std::string gbf_bytes = saved_bytes(gbf);
  const std::string tbf_bytes = saved_bytes(tbf);
  const std::string apbf_payload =
      unwrap(detail::kApbfMagic, saved_bytes(apbf), "apbf");

  // Byte offsets of the word: GBF magic + 5 window + m, k; TBF magic +
  // 5 window + m, k, C; APBF (inside its section) 5 window + m, k, l.
  const auto forge = [](std::string bytes, std::size_t offset,
                        std::uint64_t word) {
    std::uint64_t was;
    std::memcpy(&was, bytes.data() + offset, 8);
    EXPECT_EQ(was, 0u) << "offset " << offset << " is not the strategy word";
    std::memcpy(bytes.data() + offset, &word, 8);
    return bytes;
  };
  const auto expect_refused = [](const std::string& bytes, std::uint64_t word,
                                 const auto& read) {
    std::stringstream in(bytes);
    try {
      read(in);
      ADD_FAILURE() << "strategy word " << word << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("index strategy " +
                                           std::to_string(word)),
                std::string::npos)
          << e.what();
    }
  };
  for (const std::uint64_t word : {1u, 3u, 7u}) {
    SCOPED_TRACE("strategy word " + std::to_string(word));
    const std::string g = forge(gbf_bytes, 8 * 8, word);
    expect_refused(g, word, [&](std::istream& in) { gbf.restore(in); });

    const std::string t = forge(tbf_bytes, 9 * 8, word);
    expect_refused(t, word, [&](std::istream& in) { tbf.restore(in); });

    const std::string a =
        rewrap(detail::kApbfMagic, forge(apbf_payload, 8 * 8, word));
    expect_refused(a, word, [&](std::istream& in) { apbf.restore(in); });
  }

  // The unforged snapshots still restore, into fresh instances, and keep
  // every saved id.
  std::stringstream g(gbf_bytes), t(tbf_bytes);
  std::stringstream a(rewrap(detail::kApbfMagic, apbf_payload));
  GroupBloomFilter gbf2(WindowSpec::jumping_count(512, 4), gbf_opts());
  TimingBloomFilter tbf2(WindowSpec::sliding_count(512), tbf_opts());
  AgePartitionedBloomFilter apbf2(WindowSpec::sliding_count(512), apbf_opts);
  gbf2.restore(g);
  tbf2.restore(t);
  apbf2.restore(a);
  EXPECT_TRUE(gbf2.offer(499));
  EXPECT_TRUE(tbf2.offer(499));
  EXPECT_TRUE(apbf2.offer(499));
}

// Every format carries the five window words; a kind word out of range
// (7) is refused by name, by the shared window check, whether the words sit
// in a raw filter header or inside a CRC-valid section.
TEST(Snapshot, ForgedWindowKindIsRefusedByEveryFormat) {
  GroupBloomFilter gbf(WindowSpec::jumping_count(512, 4), gbf_opts());
  TimingBloomFilter tbf(WindowSpec::sliding_count(512), tbf_opts());
  AgePartitionedBloomFilter apbf(
      WindowSpec::sliding_count(512),
      {.bits_per_slice = 1 << 12, .consecutive = 4, .generations = 4,
       .seed = 9});
  auto sharded = make_tiny_sharded(2);
  adnet::TieredPoolOptions tiered_opts;
  tiered_opts.memory_cap_bits = std::size_t{1} << 24;
  tiered_opts.hot_window = WindowSpec::sliding_count(256);
  tiered_opts.tail_window_clicks = 1 << 12;
  tiered_opts.hh_capacity = 16;
  tiered_opts.epoch_clicks = 1 << 10;
  adnet::TieredDetectorPool tiered(tiered_opts);
  for (ClickId id = 0; id < 300; ++id) {
    gbf.offer(id);
    tbf.offer(id);
    apbf.offer(id);
    sharded->offer(id);
    tiered.offer(static_cast<std::uint32_t>(id % 3), id, id);
  }
  std::stringstream tiered_bytes;
  tiered.save(tiered_bytes);

  static constexpr std::uint64_t kForgedKind = 7;
  const auto with_kind = [](std::string bytes, std::size_t offset) {
    std::memcpy(bytes.data() + offset, &kForgedKind, 8);
    return bytes;
  };
  const auto in_section = [&](std::uint64_t magic, const std::string& bytes,
                              std::size_t offset) {
    return rewrap(magic, with_kind(unwrap(magic, bytes, "forge"), offset));
  };
  const auto expect_window_refused = [](const char* format,
                                        const std::string& bytes,
                                        const auto& restore) {
    std::stringstream in(bytes);
    try {
      restore(in);
      ADD_FAILURE() << format << " accepted window kind " << kForgedKind;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("window"), std::string::npos)
          << format << ": " << e.what();
    }
  };
  // Kind word offsets: GBF/TBF after the magic; APBF first in its payload;
  // sharded after the shard count and engine word; tiered after its six
  // tiering-option words.
  expect_window_refused("GBF", with_kind(saved_bytes(gbf), 8),
                        [&](std::istream& in) { gbf.restore(in); });
  expect_window_refused("TBF", with_kind(saved_bytes(tbf), 8),
                        [&](std::istream& in) { tbf.restore(in); });
  expect_window_refused(
      "APBF", in_section(detail::kApbfMagic, saved_bytes(apbf), 0),
      [&](std::istream& in) { apbf.restore(in); });
  expect_window_refused(
      "sharded", in_section(detail::kShardedMagic, saved_bytes(*sharded), 16),
      [&](std::istream& in) { sharded->restore(in); });
  expect_window_refused(
      "tiered", in_section(detail::kTieredPoolMagic, tiered_bytes.str(), 48),
      [&](std::istream& in) { tiered.restore(in); });
}

TEST(ShardedSnapshotFuzz, TrailingPayloadGarbageRejected) {
  auto sharded = make_tiny_sharded(2);
  sharded->offer(1);
  std::string payload =
      unwrap(detail::kShardedMagic, saved_bytes(*sharded), "fuzz");
  payload += "extra";
  auto target = make_tiny_sharded(2);
  std::stringstream in(rewrap(detail::kShardedMagic, payload));
  EXPECT_THROW(target->restore(in), std::runtime_error);
}

TEST(ShardedSnapshotFuzz, RandomGarbageRejected) {
  auto target = make_tiny_sharded(2);
  std::uint64_t x = 0x243F6A8885A308D3ull;  // deterministic xorshift
  for (int round = 0; round < 64; ++round) {
    std::string garbage(64 + round * 17, '\0');
    for (auto& c : garbage) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      c = static_cast<char>(x);
    }
    std::stringstream in(garbage);
    EXPECT_THROW(target->restore(in), std::exception) << "round " << round;
  }
}

TEST(ShardedSnapshot, RejectsMismatchedInstanceOptions) {
  auto sharded = make_tiny_sharded(2);
  sharded->offer(1);
  const std::string bytes = saved_bytes(*sharded);

  {  // shard count mismatch names the dimension
    auto target = make_tiny_sharded(4);
    std::stringstream in(bytes);
    try {
      target->restore(in);
      FAIL() << "restore accepted a 2-shard snapshot into 4 shards";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("shards"), std::string::npos)
          << e.what();
    }
  }
  {  // window mismatch (different aggregate count length)
    auto target = make_tiny_sharded(2, /*window_len=*/512);
    std::stringstream in(bytes);
    try {
      target->restore(in);
      FAIL() << "restore accepted a mismatched window";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("window"), std::string::npos)
          << e.what();
    }
  }
  {  // inner detector option mismatch (different seed) surfaces shard context
    auto target = make_tiny_sharded(2, 256, /*seed=*/10);
    std::stringstream in(bytes);
    try {
      target->restore(in);
      FAIL() << "restore accepted mismatched inner options";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("shard 0"), std::string::npos)
          << e.what();
    }
  }
}

// The second payload word is the engine word. Saves write 0; snapshots
// from builds that also had a lock-free owner engine may carry 1. Both
// restore to the same verdicts; any other value is refused.
TEST(ShardedSnapshot, EngineWordZeroOrOneRestores) {
  auto source = make_tiny_sharded(2);
  const auto ids = testutil::make_id_stream(400, 0.3, 128, 7);
  for (const auto id : ids) source->offer(id);
  const std::string payload =
      unwrap(detail::kShardedMagic, saved_bytes(*source), "engine word");
  std::uint64_t word = ~0ull;
  std::memcpy(&word, payload.data() + 8, 8);
  EXPECT_EQ(word, 0u);

  const auto with_word = [&](std::uint64_t w) {
    std::string forged = payload;
    std::memcpy(forged.data() + 8, &w, 8);
    return rewrap(detail::kShardedMagic, forged);
  };
  auto from_zero = make_tiny_sharded(2);
  auto from_one = make_tiny_sharded(2);
  std::stringstream zero(with_word(0)), one(with_word(1));
  ASSERT_NO_THROW(from_zero->restore(zero));
  ASSERT_NO_THROW(from_one->restore(one));
  for (std::size_t i = 0; i < 200; ++i) {
    const ClickId id = ids[i % ids.size()];
    const bool expected = source->offer(id);
    ASSERT_EQ(from_zero->offer(id), expected) << "click " << i;
    ASSERT_EQ(from_one->offer(id), expected) << "click " << i;
  }
  EXPECT_EQ(saved_bytes(*from_one), saved_bytes(*source));

  auto target = make_tiny_sharded(2);
  std::stringstream two(with_word(2));
  EXPECT_THROW(target->restore(two), std::runtime_error);
}

// --- DetectorPool composite format --------------------------------------

adnet::DetectorPool make_tiny_pool(std::uint64_t seed = 9) {
  return adnet::DetectorPool([seed](std::uint32_t) {
    GroupBloomFilter::Options o;
    o.bits_per_subfilter = 1 << 10;
    o.hash_count = 3;
    o.seed = seed;
    return std::make_unique<GroupBloomFilter>(WindowSpec::jumping_count(64, 4),
                                              o);
  });
}

std::string saved_pool_bytes(adnet::DetectorPool& pool) {
  std::stringstream buffer;
  pool.save(buffer);
  return buffer.str();
}

TEST(PoolSnapshotFuzz, EveryTruncationAndByteFlipRejected) {
  adnet::DetectorPool pool = make_tiny_pool();
  for (std::uint32_t ad : {7u, 3u, 900u}) {
    for (std::uint64_t i = 0; i < 50; ++i) pool.offer(ad, i % 20, 0);
  }
  const std::string bytes = saved_pool_bytes(pool);

  adnet::DetectorPool target = make_tiny_pool();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::stringstream in(bytes.substr(0, len));
    EXPECT_THROW(target.restore(in), std::exception) << "length " << len;
  }
  for (const std::uint8_t delta : {0x01, 0x80, 0xff}) {
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
      std::string mutated = bytes;
      mutated[pos] = static_cast<char>(mutated[pos] ^ delta);
      std::stringstream in(mutated);
      EXPECT_THROW(target.restore(in), std::exception)
          << "byte " << pos << " ^ " << int{delta};
    }
  }
  std::stringstream intact(bytes);
  EXPECT_NO_THROW(target.restore(intact));
  EXPECT_EQ(target.size(), 3u);
}

TEST(PoolSnapshotFuzz, ForgedAdCountsWithValidCrcRejected) {
  adnet::DetectorPool pool = make_tiny_pool();
  pool.offer(7, 1, 0);
  pool.offer(9, 2, 0);
  const std::string payload =
      unwrap(detail::kPoolMagic, saved_pool_bytes(pool), "fuzz");

  // Count larger than the ads present → runs off the payload; count
  // smaller → trailing bytes; absurd → implausible-count guard.
  for (const std::uint64_t forged_count : {1ull, 3ull, 4096ull, ~0ull}) {
    std::string forged = payload;
    std::memcpy(forged.data(), &forged_count, 8);
    adnet::DetectorPool target = make_tiny_pool();
    std::stringstream in(rewrap(detail::kPoolMagic, forged));
    EXPECT_THROW(target.restore(in), std::exception)
        << "count " << forged_count;
  }
}

TEST(PoolSnapshotFuzz, OutOfOrderAdIdsRejected) {
  adnet::DetectorPool pool = make_tiny_pool();
  pool.offer(7, 1, 0);
  const std::string payload =
      unwrap(detail::kPoolMagic, saved_pool_bytes(pool), "fuzz");

  // Duplicate the single (ad, detector) record and bump the count to 2:
  // the second record's ad id (7 again) is not strictly ascending.
  std::string forged = payload;
  const std::uint64_t two = 2;
  std::memcpy(forged.data(), &two, 8);
  forged += payload.substr(8);
  adnet::DetectorPool target = make_tiny_pool();
  std::stringstream in(rewrap(detail::kPoolMagic, forged));
  try {
    target.restore(in);
    FAIL() << "restore accepted duplicate ad records";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("out of order"), std::string::npos)
        << e.what();
  }
}

TEST(PoolSnapshot, RoundTripPreservesEveryAdsWindow) {
  adnet::DetectorPool pool = make_tiny_pool();
  const auto ids = testutil::make_id_stream(900, 0.4, 64, 8);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    pool.offer(static_cast<std::uint32_t>(i % 3), ids[i], 0);
  }
  const std::string bytes = saved_pool_bytes(pool);

  adnet::DetectorPool resumed = make_tiny_pool();
  std::stringstream in(bytes);
  resumed.restore(in);
  ASSERT_EQ(resumed.size(), pool.size());
  ASSERT_EQ(resumed.memory_bits(), pool.memory_bits());
  for (std::size_t i = 0; i < 300; ++i) {
    const auto ad = static_cast<std::uint32_t>(i % 3);
    const ClickId id = ids[i];
    ASSERT_EQ(resumed.offer(ad, id, 0), pool.offer(ad, id, 0))
        << "click " << i;
  }
}

TEST(PoolSnapshot, RestoreEnforcesMemoryCap) {
  adnet::DetectorPool pool = make_tiny_pool();
  for (std::uint32_t ad = 0; ad < 4; ++ad) pool.offer(ad, 1, 0);
  const std::string bytes = saved_pool_bytes(pool);

  // A pool whose cap fits only two of the four saved detectors must refuse
  // with the same length_error live creation throws.
  GroupBloomFilter probe(WindowSpec::jumping_count(64, 4), [] {
    GroupBloomFilter::Options o;
    o.bits_per_subfilter = 1 << 10;
    o.hash_count = 3;
    o.seed = 9;
    return o;
  }());
  adnet::DetectorPoolOptions small_cap;
  small_cap.memory_cap_bits = probe.memory_bits() * 2;
  adnet::DetectorPool target(
      [](std::uint32_t) {
        GroupBloomFilter::Options o;
        o.bits_per_subfilter = 1 << 10;
        o.hash_count = 3;
        o.seed = 9;
        return std::make_unique<GroupBloomFilter>(
            WindowSpec::jumping_count(64, 4), o);
      },
      small_cap);
  std::stringstream in(bytes);
  EXPECT_THROW(target.restore(in), std::length_error);
}

// --- Pinned save bytes of every format ------------------------------------
//
// Each case builds one snapshot format, feeds it the same seeded stream
// (fresh ids mixed with replays from up to 1.5 windows back, ~1.5 us apart,
// over 8 ads and 48 sources, in random chunks), saves it, and compares the
// fnv1a64 of the save bytes with a digest recorded before the snapshot
// framing moved into core/snapshot_io.hpp. Any change to a format's bytes,
// or to the verdicts that shaped the state, changes a digest.

struct DigestStream {
  std::vector<std::uint32_t> ads;
  std::vector<ClickId> ids;
  std::vector<std::uint64_t> times;
  std::vector<std::uint32_t> sources;
};

DigestStream digest_stream() {
  constexpr std::uint64_t kClicks = 24'000;
  constexpr std::uint64_t kReach = 6'000;
  stream::Rng rng(0xd16e57);
  DigestStream s;
  std::uint64_t now = 1'000'000;
  for (std::uint64_t i = 0; i < kClicks; ++i) {
    const bool replay = i > 0 && rng.chance(0.3);
    const std::uint64_t from = replay ? i - 1 - rng.below(std::min(i, kReach))
                                      : 0;
    s.ids.push_back(replay ? s.ids[from] : rng.next());
    s.ads.push_back(replay ? s.ads[from]
                           : 1 + static_cast<std::uint32_t>(rng.below(8)));
    // Source 0x0a000001 replays heavily, so the ledger walks its tiers.
    s.sources.push_back(replay && rng.chance(0.5)
                            ? 0x0a000001u
                            : 0x0a000002u +
                                  static_cast<std::uint32_t>(rng.below(47)));
    now += rng.below(4);
    s.times.push_back(now);
  }
  return s;
}

/// Offers `s` in random chunks of 1..512 through `offer(off, len, out)`.
template <typename Offer>
void offer_in_chunks(const DigestStream& s, Offer offer) {
  stream::Rng rng(0xc4a2);
  std::vector<char> out(512);
  const std::span<bool> out_span(reinterpret_cast<bool*>(out.data()),
                                 out.size());
  for (std::size_t off = 0; off < s.ids.size();) {
    const std::size_t len =
        std::min<std::size_t>(1 + rng.below(512), s.ids.size() - off);
    offer(off, len, out_span.first(len));
    off += len;
  }
}

std::string detector_digest_bytes(DuplicateDetector& d) {
  const DigestStream s = digest_stream();
  offer_in_chunks(s, [&](std::size_t off, std::size_t len,
                         std::span<bool> out) {
    d.offer_batch(std::span<const ClickId>(s.ids).subspan(off, len),
                  std::span<const std::uint64_t>(s.times).subspan(off, len),
                  out);
  });
  return saved_bytes(d);
}

GroupBloomFilter::Options digest_gbf_opts() {
  GroupBloomFilter::Options o;
  o.bits_per_subfilter = 1 << 12;
  o.hash_count = 4;
  o.seed = 31;
  return o;
}

AgePartitionedBloomFilter::Options digest_apbf_opts() {
  return {.bits_per_slice = 1 << 11, .consecutive = 4, .generations = 6,
          .seed = 31};
}

adnet::DetectorPool make_digest_pool() {
  return adnet::DetectorPool([](std::uint32_t ad) {
    TimingBloomFilter::Options o;
    o.entries = 1 << 11;
    o.hash_count = 4;
    o.seed = 31 + ad;
    return std::make_unique<TimingBloomFilter>(WindowSpec::sliding_count(512),
                                               o);
  });
}

std::string gbf_count_bytes() {
  GroupBloomFilter f(WindowSpec::jumping_count(4096, 4), digest_gbf_opts());
  return detector_digest_bytes(f);
}

std::string gbf_time_bytes() {
  GroupBloomFilter f(WindowSpec::jumping_time(8192, 4, 512),
                     digest_gbf_opts());
  return detector_digest_bytes(f);
}

std::string apbf_count_bytes() {
  AgePartitionedBloomFilter f(WindowSpec::sliding_count(4096),
                              digest_apbf_opts());
  return detector_digest_bytes(f);
}

std::string apbf_time_bytes() {
  AgePartitionedBloomFilter f(WindowSpec::sliding_time(8192, 512),
                              digest_apbf_opts());
  return detector_digest_bytes(f);
}

std::string sharded_bytes() {
  ShardedDetector f(4, [](std::size_t) {
    return std::make_unique<GroupBloomFilter>(WindowSpec::jumping_count(1024, 4),
                                              digest_gbf_opts());
  });
  return detector_digest_bytes(f);
}

std::string pool_bytes() {
  adnet::DetectorPool pool = make_digest_pool();
  const DigestStream s = digest_stream();
  offer_in_chunks(s, [&](std::size_t off, std::size_t len,
                         std::span<bool> out) {
    pool.offer_batch(std::span<const std::uint32_t>(s.ads).subspan(off, len),
                     std::span<const ClickId>(s.ids).subspan(off, len),
                     std::span<const std::uint64_t>(s.times).subspan(off, len),
                     out);
  });
  return saved_pool_bytes(pool);
}

/// The ppcd snapshot file of `enforce(pool)`: the server envelope around
/// the pool section and the ledger section.
std::string enforced_pool_envelope_bytes() {
  adnet::DetectorPool pool = make_digest_pool();
  server::PoolSink inner(pool);
  enforce::EnforcementPolicy policy;
  policy.flag_min_duplicates = 4;
  policy.discount_min_duplicates = 8;
  policy.block_min_duplicates = 16;
  policy.blatant_min_duplicates = 16;
  policy.rate_alpha = 1.0 / 8;
  policy.min_clicks = 8;
  policy.score_half_life_us = 4'000;
  policy.block_ttl_us = 16'000;
  enforce::ReputationLedger ledger(policy);
  server::EnforcingSink sink(inner, ledger);
  const DigestStream s = digest_stream();
  offer_in_chunks(s, [&](std::size_t off, std::size_t len,
                         std::span<bool> out) {
    sink.offer_with_sources(
        std::span<const std::uint32_t>(s.ads).subspan(off, len),
        std::span<const ClickId>(s.ids).subspan(off, len),
        std::span<const std::uint64_t>(s.times).subspan(off, len),
        std::span<const std::uint32_t>(s.sources).subspan(off, len), out);
  });
  EXPECT_GT(sink.rejected(), 0u) << "the stream never blocked a source";
  const std::string path = ::testing::TempDir() + "/digest_envelope.snap";
  server::IngestServer::save_sink_snapshot(sink, path);
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  std::remove(path.c_str());
  return bytes.str();
}

struct DigestCase {
  const char* name;
  std::string (*save)();
  std::uint64_t digest;

  friend void PrintTo(const DigestCase& c, std::ostream* os) { *os << c.name; }
};

class SnapshotDigest : public ::testing::TestWithParam<DigestCase> {};

TEST_P(SnapshotDigest, SaveBytesMatchRecordedDigest) {
  const DigestCase& c = GetParam();
  const std::string bytes = c.save();
  EXPECT_EQ(hashing::fnv1a64(bytes), c.digest)
      << c.name << ": 0x" << std::hex << hashing::fnv1a64(bytes) << ", "
      << std::dec << bytes.size() << " bytes";
}

INSTANTIATE_TEST_SUITE_P(
    Formats, SnapshotDigest,
    ::testing::Values(
        DigestCase{"gbf_count", gbf_count_bytes, 0xc3d10a13a31aabd2ULL},
        DigestCase{"gbf_time", gbf_time_bytes, 0x23eeaeb7d9a0c4ecULL},
        DigestCase{"apbf_count", apbf_count_bytes, 0xba9d5e944b56a475ULL},
        DigestCase{"apbf_time", apbf_time_bytes, 0x587b12c4bf472362ULL},
        DigestCase{"sharded4_gbf", sharded_bytes, 0xdf1b79fb69e19c8bULL},
        DigestCase{"pool_tbf", pool_bytes, 0xde562cd193b9a8d4ULL},
        DigestCase{"envelope_enforce_pool", enforced_pool_envelope_bytes,
                   0x35b7694e9a9678faULL}),
    [](const ::testing::TestParamInfo<DigestCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace ppc::core
