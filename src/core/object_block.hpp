// Fixed-capacity storage for objects built once and kept for their owner's
// life: the hosts, links and queues of a topology, the flows of a workload.
//
// Every bisection probe builds a fresh world, so a separate heap block per
// host, link and queue costs a malloc and a free per object per probe.
// ObjectBlock allocates one block for a capacity known up front (from the
// config) and constructs each object in place, in order. Addresses never
// change, so objects may point at each other; the block destroys them in
// reverse construction order, so an object outlives every later one that
// may refer to it. An over-aligned T (such as the cache-line aligned
// net::Link) gets its alignment as the block's stride.
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace rbs::core {

template <class T>
class ObjectBlock {
 public:
  /// Allocates room for `capacity` objects; none is constructed yet.
  explicit ObjectBlock(std::size_t capacity)
      : data_{capacity == 0 ? nullptr : std::allocator<T>{}.allocate(capacity)},
        capacity_{capacity} {}

  ObjectBlock(const ObjectBlock&) = delete;
  ObjectBlock& operator=(const ObjectBlock&) = delete;

  ~ObjectBlock() {
    while (size_ > 0) std::destroy_at(data_ + --size_);
    if (data_ != nullptr) std::allocator<T>{}.deallocate(data_, capacity_);
  }

  /// Constructs the next object in place. Throws std::length_error once the
  /// block is full: the capacity is a topology's own count, so running past
  /// it is a bug in the builder.
  template <class... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) {
      throw std::length_error("ObjectBlock: all " + std::to_string(capacity_) +
                              " slots are in use");
    }
    T* obj = std::construct_at(data_ + size_, std::forward<Args>(args)...);
    ++size_;
    return *obj;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data_[i]; }

  /// Object `i`; throws std::out_of_range unless `i < size()`.
  [[nodiscard]] T& at(std::size_t i) {
    if (i >= size_) throw std::out_of_range("ObjectBlock: no object " + std::to_string(i));
    return data_[i];
  }
  [[nodiscard]] const T& at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("ObjectBlock: no object " + std::to_string(i));
    return data_[i];
  }

  [[nodiscard]] T* begin() noexcept { return data_; }
  [[nodiscard]] T* end() noexcept { return data_ + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data_; }
  [[nodiscard]] const T* end() const noexcept { return data_ + size_; }

 private:
  T* data_;
  std::size_t capacity_;
  std::size_t size_{0};
};

}  // namespace rbs::core
