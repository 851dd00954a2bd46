// Tests for the Space-Saving heavy-hitters structure: exactness below
// capacity, the frequent-item guarantee, error bounds, and Zipf behaviour.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "analysis/heavy_hitters.hpp"
#include "hashing/fnv.hpp"
#include "stream/rng.hpp"
#include "stream/zipf.hpp"

namespace ppc::analysis {
namespace {

TEST(SpaceSaving, RejectsZeroCapacity) {
  EXPECT_THROW(SpaceSaving(0), std::invalid_argument);
}

TEST(SpaceSaving, ExactWhenUnderCapacity) {
  SpaceSaving ss(16);
  for (int rep = 0; rep < 5; ++rep) {
    for (std::uint64_t key = 0; key < 10; ++key) {
      for (std::uint64_t i = 0; i <= key; ++i) ss.offer(key);
    }
  }
  EXPECT_EQ(ss.monitored(), 10u);
  const auto entries = ss.entries();
  ASSERT_EQ(entries.size(), 10u);
  EXPECT_EQ(entries.front().key, 9u);
  EXPECT_EQ(entries.front().count, 50u);
  EXPECT_EQ(entries.front().error, 0u);
  EXPECT_EQ(entries.back().key, 0u);
  EXPECT_EQ(entries.back().count, 5u);
  // Sorted descending.
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GE(entries[i - 1].count, entries[i].count);
  }
}

TEST(SpaceSaving, CountsAreUpperBoundsWithBoundedError) {
  // Adversarial-ish stream over a key space 8x the capacity.
  SpaceSaving ss(32);
  std::map<std::uint64_t, std::uint64_t> truth;
  stream::Rng rng(3);
  for (int i = 0; i < 50'000; ++i) {
    const std::uint64_t key = rng.below(256);
    ss.offer(key);
    ++truth[key];
  }
  const std::uint64_t max_error = ss.stream_length() / ss.capacity();
  for (const auto& e : ss.entries()) {
    EXPECT_GE(e.count, truth[e.key]) << "count must upper-bound truth";
    EXPECT_LE(e.count - e.error, truth[e.key])
        << "count - error must lower-bound truth";
    EXPECT_LE(e.error, max_error) << "error beyond the N/m bound";
  }
}

TEST(SpaceSaving, GuaranteesTrueHeavyHitters) {
  // One key is 30% of the stream; with capacity 64 it MUST be tracked and
  // reported on top.
  SpaceSaving ss(64);
  stream::Rng rng(4);
  for (int i = 0; i < 30'000; ++i) {
    ss.offer(rng.chance(0.3) ? 42u : 1000 + rng.below(5000));
  }
  const auto top = ss.top(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].key, 42u);
  EXPECT_TRUE(ss.guaranteed_frequent(42, ss.stream_length() / 10));
  EXPECT_FALSE(ss.guaranteed_frequent(99999, 0));
}

TEST(SpaceSaving, TopKOnZipfStreamFindsTheHead) {
  SpaceSaving ss(128);
  stream::ZipfSampler zipf(100'000, 1.2);
  stream::Rng rng(5);
  for (int i = 0; i < 200'000; ++i) ss.offer(zipf.sample(rng));
  const auto top = ss.top(5);
  ASSERT_EQ(top.size(), 5u);
  // The five most popular Zipf ranks are 0..4 (in some order).
  for (const auto& e : top) {
    EXPECT_LT(e.key, 8u) << "a tail key displaced the Zipf head";
  }
}

TEST(SpaceSaving, ClearResets) {
  SpaceSaving ss(8);
  ss.offer(1);
  ss.offer(1);
  ss.clear();
  EXPECT_EQ(ss.monitored(), 0u);
  EXPECT_EQ(ss.stream_length(), 0u);
  EXPECT_TRUE(ss.entries().empty());
}

TEST(SpaceSaving, TopMoreThanMonitoredReturnsAll) {
  SpaceSaving ss(8);
  ss.offer(1);
  ss.offer(2);
  EXPECT_EQ(ss.top(100).size(), 2u);
}

std::string saved(const SpaceSaving& s) {
  std::ostringstream out(std::ios::binary);
  s.save(out);
  return out.str();
}

void expect_same_entries(const SpaceSaving& a, const SpaceSaving& b) {
  const auto ea = a.entries();
  const auto eb = b.entries();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].key, eb[i].key) << "entry " << i;
    EXPECT_EQ(ea[i].count, eb[i].count) << "entry " << i;
    EXPECT_EQ(ea[i].error, eb[i].error) << "entry " << i;
  }
}

TEST(SpaceSaving, SaveRestoreRoundTrip) {
  SpaceSaving ss(32);
  stream::ZipfSampler zipf(10'000, 1.1);
  stream::Rng rng(6);
  for (int i = 0; i < 50'000; ++i) ss.offer(zipf.sample(rng));

  std::stringstream snap(std::ios::binary | std::ios::in | std::ios::out);
  ss.save(snap);
  SpaceSaving restored(32);
  restored.restore(snap);

  EXPECT_EQ(restored.stream_length(), ss.stream_length());
  EXPECT_EQ(restored.monitored(), ss.monitored());
  // Restore rebuilds the exact structure, ties included: entries() agree
  // in order, not just as a key -> (count, error) map.
  expect_same_entries(ss, restored);
  // The restored summary keeps COUNTING identically (buckets rebuilt, not
  // just the flat entries): min-count evictions pick the same victims.
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t key = zipf.sample(rng);
    ss.offer(key);
    restored.offer(key);
  }
  EXPECT_EQ(restored.stream_length(), ss.stream_length());
  expect_same_entries(ss, restored);
  EXPECT_EQ(ss.top(1).front().key, 0u);
}

TEST(SpaceSaving, SaveRestoreSaveIsByteIdentical) {
  // Many equal counts: 200 keys offered once or twice into 64 counters,
  // so every bucket holds a long tied run whose order save() records.
  SpaceSaving ss(64);
  stream::Rng rng(21);
  for (int i = 0; i < 5'000; ++i) ss.offer(rng.below(200));
  const std::string first = saved(ss);
  SpaceSaving restored(64);
  std::istringstream in(first, std::ios::binary);
  restored.restore(in);
  EXPECT_EQ(saved(restored), first);
}

TEST(SpaceSaving, RestoredCopyEvolvesByteIdentically) {
  // A follower that caught up through a snapshot must keep serializing
  // (and evicting) exactly like the primary on the same stream.
  SpaceSaving original(16);
  stream::Rng rng(22);
  for (int i = 0; i < 2'000; ++i) original.offer(rng.below(64));
  std::istringstream in(saved(original), std::ios::binary);
  SpaceSaving copy(16);
  copy.restore(in);
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t key = rng.below(64);
    original.offer(key);
    copy.offer(key);
    if (i % 997 == 0) {
      ASSERT_EQ(saved(copy), saved(original)) << "offer " << i;
    }
  }
  EXPECT_EQ(saved(copy), saved(original));
}

std::string describe(const std::vector<SpaceSaving::Entry>& entries) {
  std::string out;
  for (const auto& e : entries) {
    out += std::to_string(e.key) + ":" + std::to_string(e.count) + "/" +
           std::to_string(e.error) + " ";
  }
  return out;
}

TEST(SpaceSaving, PinnedTieAndEvictionOrder) {
  // Pins the exact Stream-Summary order: within equal counts the latest
  // arrival lists first in entries(), and an eviction replaces the entry
  // that has sat longest at the minimum count. Any reimplementation must
  // reproduce these sequences and these save() bytes.
  SpaceSaving ss(8);
  const std::uint64_t script[] = {1, 2, 3, 4, 5, 6, 7, 8,  // fill: 8-way tie
                                  3, 5,                    // two step up
                                  9, 10,                   // evict 1, then 2
                                  3, 11, 2, 12, 12, 13, 5, 14, 9, 15};
  for (const std::uint64_t key : script) ss.offer(key);
  EXPECT_EQ(describe(ss.entries()),
            "15:3/2 9:3/2 14:3/2 5:3/0 12:3/1 3:3/0 13:2/1 2:2/1 ");
  EXPECT_EQ(hashing::fnv1a64(saved(ss)), 0x1969f04b1fbb78dbULL);

  stream::Rng rng(23);
  for (int i = 0; i < 600; ++i) ss.offer(rng.below(i % 3 == 0 ? 4 : 24));
  EXPECT_EQ(describe(ss.entries()),
            "1:80/65 0:79/63 3:78/76 2:78/45 15:77/76 17:77/76 20:77/76 "
            "11:76/75 ");
  EXPECT_EQ(hashing::fnv1a64(saved(ss)), 0xd317e16c9c106800ULL);
}

TEST(SpaceSaving, RestoreRejectsCapacityMismatchAndCorruption) {
  SpaceSaving ss(16);
  for (std::uint64_t k = 0; k < 10; ++k) ss.offer(k);
  std::stringstream snap(std::ios::binary | std::ios::in | std::ios::out);
  ss.save(snap);

  SpaceSaving wrong_capacity(8);
  EXPECT_THROW(wrong_capacity.restore(snap), std::runtime_error);

  std::string bytes = snap.str();
  bytes[bytes.size() - 3] ^= 0xff;  // corrupt an entry near the end
  std::istringstream corrupt(bytes, std::ios::binary);
  SpaceSaving target(16);
  EXPECT_THROW(target.restore(corrupt), std::runtime_error);
  EXPECT_EQ(target.monitored(), 0u) << "failed restore must leave it cleared";
}

}  // namespace
}  // namespace ppc::analysis
