#include "analysis/heavy_hitters.hpp"

#include <string>

#include "core/snapshot_io.hpp"

namespace ppc::analysis {

namespace {
// "PPCSSHH1" — Space-Saving summary snapshot, little-endian byte tag.
constexpr std::uint64_t kSpaceSavingMagic = 0x50504353'53484831ULL;
}  // namespace

std::uint32_t SpaceSaving::add_bucket(std::uint64_t count,
                                      std::uint32_t lower,
                                      std::uint32_t higher) {
  std::uint32_t b = free_bucket_;
  if (b != kNil) {
    free_bucket_ = buckets_[b].higher;
  } else {
    b = static_cast<std::uint32_t>(buckets_.size());
    buckets_.emplace_back();
  }
  buckets_[b] = Bucket{count, kNil, kNil, lower, higher};
  (lower != kNil ? buckets_[lower].higher : lowest_) = b;
  (higher != kNil ? buckets_[higher].lower : highest_) = b;
  return b;
}

void SpaceSaving::drop_bucket(std::uint32_t b) {
  const Bucket& bucket = buckets_[b];
  (bucket.lower != kNil ? buckets_[bucket.lower].higher : lowest_) =
      bucket.higher;
  (bucket.higher != kNil ? buckets_[bucket.higher].lower : highest_) =
      bucket.lower;
  buckets_[b].higher = free_bucket_;
  free_bucket_ = b;
}

void SpaceSaving::link(std::uint32_t b, std::uint32_t c, bool at_head) {
  Bucket& bucket = buckets_[b];
  Counter& e = counters_[c];
  e.bucket = b;
  if (at_head) {
    e.prev = kNil;
    e.next = bucket.head;
    (bucket.head != kNil ? counters_[bucket.head].prev : bucket.tail) = c;
    bucket.head = c;
  } else {
    e.next = kNil;
    e.prev = bucket.tail;
    (bucket.tail != kNil ? counters_[bucket.tail].next : bucket.head) = c;
    bucket.tail = c;
  }
}

void SpaceSaving::unlink(std::uint32_t c) {
  const Counter& e = counters_[c];
  Bucket& bucket = buckets_[e.bucket];
  (e.prev != kNil ? counters_[e.prev].next : bucket.head) = e.next;
  (e.next != kNil ? counters_[e.next].prev : bucket.tail) = e.prev;
}

void SpaceSaving::increment(std::uint32_t c) {
  const std::uint32_t b = counters_[c].bucket;
  const std::uint64_t new_count = buckets_[b].count + 1;
  std::uint32_t next = buckets_[b].higher;
  if (next == kNil || buckets_[next].count != new_count) {
    next = add_bucket(new_count, b, next);
  }
  unlink(c);
  link(next, c, /*at_head=*/true);
  if (buckets_[b].head == kNil) drop_bucket(b);
}

void SpaceSaving::offer(std::uint64_t key) {
  ++stream_length_;
  std::uint32_t c = index_.find(key);
  if (c != kNil) {
    increment(c);
    return;
  }

  if (counters_.size() < capacity_) {
    // Room available: start monitoring at count 1, no error.
    c = static_cast<std::uint32_t>(counters_.size());
    counters_.push_back(Counter{key, 0, kNil, kNil, kNil});
    std::uint32_t b = lowest_;
    if (b == kNil || buckets_[b].count != 1) b = add_bucket(1, kNil, lowest_);
    link(b, c, /*at_head=*/true);
    index_.insert(key, c);
    return;
  }

  // Evict a minimum-count entry: the newcomer inherits its count as error
  // (the Space-Saving overestimation bound).
  c = buckets_[lowest_].tail;
  index_.erase(counters_[c].key);
  counters_[c].key = key;
  counters_[c].error = buckets_[lowest_].count;
  index_.insert(key, c);
  increment(c);
}

std::vector<SpaceSaving::Entry> SpaceSaving::entries() const {
  std::vector<Entry> out;
  out.reserve(counters_.size());
  for (std::uint32_t b = highest_; b != kNil; b = buckets_[b].lower) {
    for (std::uint32_t c = buckets_[b].head; c != kNil; c = counters_[c].next) {
      out.push_back(Entry{counters_[c].key, buckets_[b].count,
                          counters_[c].error});
    }
  }
  return out;
}

std::vector<SpaceSaving::Entry> SpaceSaving::top(std::size_t n) const {
  auto all = entries();
  if (all.size() > n) all.resize(n);
  return all;
}

void SpaceSaving::save(std::ostream& out) const {
  core::detail::write_u64(out, kSpaceSavingMagic);
  core::detail::write_u64(out, capacity_);
  core::detail::write_u64(out, stream_length_);
  core::detail::write_u64(out, counters_.size());
  // Ascending count order: restore() can rebuild the bucket list by
  // appending, and the monotonicity doubles as a corruption check.
  for (std::uint32_t b = lowest_; b != kNil; b = buckets_[b].higher) {
    for (std::uint32_t c = buckets_[b].head; c != kNil; c = counters_[c].next) {
      core::detail::write_u64(out, counters_[c].key);
      core::detail::write_u64(out, buckets_[b].count);
      core::detail::write_u64(out, counters_[c].error);
    }
  }
}

void SpaceSaving::restore(std::istream& in) {
  core::detail::expect_magic(in, kSpaceSavingMagic, "SpaceSaving");
  const std::uint64_t capacity = core::detail::read_u64(in);
  if (capacity != capacity_) {
    throw std::runtime_error(
        "SpaceSaving::restore: capacity mismatch (snapshot " +
        std::to_string(capacity) + ", instance " +
        std::to_string(capacity_) + ")");
  }
  const std::uint64_t stream_length = core::detail::read_u64(in);
  const std::uint64_t count = core::detail::read_u64(in);
  if (count > capacity_) {
    throw std::runtime_error("SpaceSaving::restore: " + std::to_string(count) +
                             " entries exceed capacity");
  }
  clear();
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    Entry e;
    e.key = core::detail::read_u64(in);
    e.count = core::detail::read_u64(in);
    e.error = core::detail::read_u64(in);
    if (e.count < prev || e.error > e.count || e.count == 0 ||
        index_.find(e.key) != kNil) {
      clear();
      throw std::runtime_error(
          "SpaceSaving::restore: corrupt entry stream at index " +
          std::to_string(i));
    }
    prev = e.count;
    if (highest_ == kNil || buckets_[highest_].count != e.count) {
      add_bucket(e.count, highest_, kNil);
    }
    // save() wrote each bucket head to tail; appending keeps that order,
    // so ties (and the eviction victim at a bucket's tail) survive.
    const auto c = static_cast<std::uint32_t>(counters_.size());
    counters_.push_back(Counter{e.key, e.error, kNil, kNil, kNil});
    link(highest_, c, /*at_head=*/false);
    index_.insert(e.key, c);
  }
  stream_length_ = stream_length;
}

}  // namespace ppc::analysis
