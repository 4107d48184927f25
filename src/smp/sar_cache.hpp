// The SMP SAR cache (Section 3.2).
//
// An SMP process with many communication channels cannot keep every
// channel's buffer mapped: SARs are scarce.  Mapping or unmapping costs
// over a millisecond, so SMP "incorporates an optional SAR cache that
// delays unmap operations as long as possible, in hopes of avoiding a
// subsequent map".  This is that cache: an LRU over channel buffer
// mappings with a fixed SAR budget.  A hit is free; a miss charges one map
// (plus one unmap when a victim must be evicted).
//
// Host layout: the mapped channels live in a flat slot array threaded by
// an intrusive recency list (prev/next slot indices), found through an
// open-addressed, linearly probed index of slot numbers.  The slot array
// and the index grow only while the cache fills, so a hit or an eviction
// allocates nothing, and flush() keeps both for the next fill.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/machine.hpp"

namespace bfly::smp {

class SarCache {
 public:
  /// `capacity` is the number of channel buffers that may stay mapped.
  /// capacity 0 disables caching: every access pays map + unmap.
  SarCache(sim::Machine& m, std::uint32_t capacity)
      : m_(m), capacity_(capacity) {}

  /// Touch `channel` before using its buffer; charges the calling fiber
  /// for whatever SAR traffic is needed.
  void access(std::uint64_t channel) {
    const sim::Time map_cost = m_.config().sar_map_ns;
    if (capacity_ == 0) {
      m_.charge(2 * map_cost);  // map now, unmap immediately after use
      misses_++;
      return;
    }
    const std::uint32_t hit = find(channel);
    if (hit != kNil) {
      unlink(hit);  // refresh
      push_front(hit);
      hits_++;
      return;
    }
    misses_++;
    sim::Time cost = map_cost;
    std::uint32_t s;
    if (slots_.size() >= capacity_) {
      s = tail_;  // evicting unmaps the least recently used channel
      unlink(s);
      erase_key(slots_[s].channel);
      cost += map_cost;
      evictions_++;
    } else {
      if (slots_.size() == slots_.capacity()) grow();
      s = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back({});
    }
    slots_[s].channel = channel;
    push_front(s);
    insert_key(s);
    m_.charge(cost);
  }

  /// Drop every mapping (e.g. before the process exits), charging unmaps.
  void flush() {
    if (!slots_.empty()) m_.charge(slots_.size() * m_.config().sar_map_ns);
    slots_.clear();
    std::fill(index_.begin(), index_.end(), kNil);
    head_ = tail_ = kNil;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr std::size_t kFirstSlots = 8;

  struct Slot {
    std::uint64_t channel = 0;
    std::uint32_t prev = kNil;  // toward the most recently used
    std::uint32_t next = kNil;  // toward the least recently used
  };

  std::size_t home(std::uint64_t channel) const {
    // Fibonacci hashing; the index size is a power of two.
    return static_cast<std::size_t>((channel * 0x9e3779b97f4a7c15ULL) >> 32) &
           (index_.size() - 1);
  }

  std::uint32_t find(std::uint64_t channel) const {
    if (index_.empty()) return kNil;
    for (std::size_t i = home(channel);; i = (i + 1) & (index_.size() - 1)) {
      const std::uint32_t s = index_[i];
      if (s == kNil || slots_[s].channel == channel) return s;
    }
  }

  void insert_key(std::uint32_t s) {
    std::size_t i = home(slots_[s].channel);
    while (index_[i] != kNil) i = (i + 1) & (index_.size() - 1);
    index_[i] = s;
  }

  /// Linear-probing delete by backward shift: later members of the probe
  /// run move up into the hole, so no tombstones accumulate.
  void erase_key(std::uint64_t channel) {
    const std::size_t mask = index_.size() - 1;
    std::size_t hole = home(channel);
    while (slots_[index_[hole]].channel != channel) hole = (hole + 1) & mask;
    for (std::size_t i = (hole + 1) & mask; index_[i] != kNil;
         i = (i + 1) & mask) {
      const std::size_t h = home(slots_[index_[i]].channel);
      // Move entry i into the hole unless its home lies cyclically in
      // (hole, i], where it is still reachable without the hole.
      if (((i - h) & mask) >= ((i - hole) & mask)) {
        index_[hole] = index_[i];
        hole = i;
      }
    }
    index_[hole] = kNil;
  }

  /// Make room for more slots (doubling, never past the budget), keeping
  /// the index at most half full.  Starting small keeps the many members
  /// that talk to a few channels small.
  void grow() {
    const std::size_t want =
        std::max<std::size_t>(2 * slots_.size(), kFirstSlots);
    slots_.reserve(std::min<std::size_t>(want, capacity_));
    std::size_t size = 8;
    while (size < 2 * slots_.capacity()) size *= 2;
    index_.assign(size, kNil);
    for (std::uint32_t s = head_; s != kNil; s = slots_[s].next) insert_key(s);
  }

  void unlink(std::uint32_t s) {
    Slot& e = slots_[s];
    (e.prev == kNil ? head_ : slots_[e.prev].next) = e.next;
    (e.next == kNil ? tail_ : slots_[e.next].prev) = e.prev;
  }

  void push_front(std::uint32_t s) {
    slots_[s].prev = kNil;
    slots_[s].next = head_;
    (head_ == kNil ? tail_ : slots_[head_].prev) = s;
    head_ = s;
  }

  sim::Machine& m_;
  std::uint32_t capacity_;
  std::vector<Slot> slots_;           // one per mapped channel
  std::vector<std::uint32_t> index_;  // slot numbers by channel hash
  std::uint32_t head_ = kNil, tail_ = kNil;
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

}  // namespace bfly::smp
