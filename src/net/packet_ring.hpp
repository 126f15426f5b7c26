// FIFO storage for queued packets: a power-of-two ring grown on demand.
//
// Most queues in a dumbbell are access-link queues that sit idle for most of
// a run, so the ring allocates nothing until its first push and then doubles
// from a small capacity. Unlike std::deque, an empty ring that never held a
// packet owns no heap block, and a busy one reuses its slots instead of
// freeing and allocating a block every few packets. Capacity is kept once
// grown: a queue that needed it once tends to need it again.
#pragma once

#include <cstddef>
#include <vector>

#include "check/invariant.hpp"
#include "net/packet.hpp"

namespace rbs::net {

class PacketRing {
 public:
  /// Capacity of the first allocation, in packets.
  static constexpr std::size_t kInitialCapacity = 8;

  /// Walks the packets in FIFO order (front first), for range-for.
  class const_iterator {
   public:
    const_iterator(const PacketRing* ring, std::size_t pos) noexcept : ring_{ring}, pos_{pos} {}

    const Packet& operator*() const noexcept { return ring_->at(pos_); }
    const_iterator& operator++() noexcept {
      ++pos_;
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) noexcept {
      return a.pos_ == b.pos_;
    }

   private:
    const PacketRing* ring_;
    std::size_t pos_;  // offset from the front
  };

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Packets the ring can hold before it next grows (0 until the first push).
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  [[nodiscard]] const Packet& front() const noexcept {
    RBS_INVARIANT(size_ != 0, "PacketRing::front on an empty ring");
    return slots_[head_];
  }
  [[nodiscard]] const Packet& back() const noexcept {
    RBS_INVARIANT(size_ != 0, "PacketRing::back on an empty ring");
    return at(size_ - 1);
  }

  void push_back(const Packet& p) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = p;
    ++size_;
  }

  void pop_front() noexcept {
    RBS_INVARIANT(size_ != 0, "PacketRing::pop_front on an empty ring");
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

  void pop_back() noexcept {
    RBS_INVARIANT(size_ != 0, "PacketRing::pop_back on an empty ring");
    --size_;
  }

  [[nodiscard]] const_iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] const_iterator end() const noexcept { return {this, size_}; }

 private:
  /// The packet `offset` places behind the front.
  [[nodiscard]] const Packet& at(std::size_t offset) const noexcept {
    return slots_[(head_ + offset) & (slots_.size() - 1)];
  }

  /// Doubles the capacity, unwrapping the contents to start at slot 0.
  void grow() {
    std::vector<Packet> bigger(slots_.empty() ? kInitialCapacity : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = at(i);
    slots_.swap(bigger);
    head_ = 0;
  }

  std::vector<Packet> slots_;  // size() is the capacity, a power of two or 0
  std::size_t head_{0};
  std::size_t size_{0};
};

}  // namespace rbs::net
