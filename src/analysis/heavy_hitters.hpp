// Space-Saving heavy hitters (Metwally, Agrawal & El Abbadi, ICDT'05) —
// the same authors' streaming top-k structure, used here to answer the
// follow-up question every flagged duplicate raises: *which* identifiers
// (bot IPs, cookies) are doing the duplicating?
//
// Classic guarantees: with `capacity` counters, any identifier whose true
// frequency exceeds stream_length / capacity is guaranteed to be tracked,
// and every reported count overestimates the true count by at most the
// reported `error`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <vector>

#include "bits/flat_index.hpp"

namespace ppc::analysis {

class SpaceSaving {
 public:
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t count = 0;  ///< upper bound on the true frequency
    std::uint64_t error = 0;  ///< count - error lower-bounds the truth
  };

  explicit SpaceSaving(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0 || capacity >= kNil) {
      throw std::invalid_argument(
          "SpaceSaving: capacity must be in [1, 2^32 - 1)");
    }
  }

  /// Records one occurrence of `key`. O(1) amortized.
  void offer(std::uint64_t key);

  /// All monitored entries, sorted by count descending.
  std::vector<Entry> entries() const;

  /// The top `n` entries (n may exceed the monitored count).
  std::vector<Entry> top(std::size_t n) const;

  /// True iff `key` is *guaranteed* to have frequency > stream/capacity
  /// (count - error still exceeds the threshold).
  bool guaranteed_frequent(std::uint64_t key,
                           std::uint64_t threshold) const {
    const std::uint32_t c = index_.find(key);
    if (c == kNil) return false;
    const Counter& e = counters_[c];
    return buckets_[e.bucket].count - e.error > threshold;
  }

  std::uint64_t stream_length() const noexcept { return stream_length_; }
  std::size_t monitored() const noexcept { return counters_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }

  void clear() {
    counters_.clear();
    buckets_.clear();
    index_.clear();
    free_bucket_ = lowest_ = highest_ = kNil;
    stream_length_ = 0;
  }

  /// Serializes the full summary (capacity, stream length, every monitored
  /// entry) so heavy-hitter-driven state — e.g. the tiered pool's
  /// promotion loop — survives a snapshot/restore cycle.
  void save(std::ostream& out) const;

  /// Restores state saved by save() INTO THIS INSTANCE. The snapshot's
  /// capacity must match this instance's; corrupt input (counts out of
  /// order, error > count, too many entries) throws std::runtime_error
  /// and leaves the summary cleared.
  void restore(std::istream& in);

 private:
  // Stream-Summary structure in flat arrays: buckets in ascending count
  // order, each holding the counters that currently share that count,
  // newest arrival at the head. Incrementing a counter moves it to the
  // head of the next bucket in O(1); the eviction victim is the tail of
  // the lowest bucket (the key that has sat longest at the minimum).
  // Links are array indices, kNil-terminated; freed buckets are chained
  // through `higher`.
  static constexpr std::uint32_t kNil = bits::FlatIndex::kNone;

  struct Counter {
    std::uint64_t key;
    std::uint64_t error;
    std::uint32_t bucket;
    std::uint32_t prev;  ///< toward the bucket's head (newer)
    std::uint32_t next;  ///< toward the bucket's tail (older)
  };
  struct Bucket {
    std::uint64_t count;
    std::uint32_t head;
    std::uint32_t tail;
    std::uint32_t lower;
    std::uint32_t higher;
  };

  std::uint32_t add_bucket(std::uint64_t count, std::uint32_t lower,
                           std::uint32_t higher);
  void drop_bucket(std::uint32_t b);
  void link(std::uint32_t b, std::uint32_t c, bool at_head);
  void unlink(std::uint32_t c);
  void increment(std::uint32_t c);

  std::size_t capacity_;
  std::vector<Counter> counters_;  // one per monitored key
  std::vector<Bucket> buckets_;
  std::uint32_t free_bucket_ = kNil;
  std::uint32_t lowest_ = kNil;   // minimum-count bucket
  std::uint32_t highest_ = kNil;  // maximum-count bucket
  bits::FlatIndex index_;         // key → counter
  std::uint64_t stream_length_ = 0;
};

}  // namespace ppc::analysis
