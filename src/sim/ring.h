// A FIFO queue in one power-of-two ring buffer.
//
// The per-packet queues of the user-space forwarder (the CPU model's job
// queue, the packets Click ingress elements hold for those jobs) push and
// pop once per forwarded packet.  std::deque allocates and frees a block
// every few elements on that path; this ring allocates only when it
// grows past its deepest backlog so far.  It doubles on demand (first
// use: 8 slots) and never shrinks, so a quiet queue costs nothing and a
// busy one stops allocating once it has seen its peak.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace vini::sim {

/// T must be default-constructible and move-assignable.  Popped slots
/// keep a moved-from T until reused.
template <typename T>
class FifoRing {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return slots_.size(); }

  /// The oldest element; the ring must not be empty.
  T& front() { return slots_[head_]; }

  void push(T&& value) {
    if (count_ == slots_.size()) grow();
    slots_[(head_ + count_) & (slots_.size() - 1)] = std::move(value);
    ++count_;
  }

  /// Remove and return the oldest element; the ring must not be empty.
  T pop() {
    T value = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --count_;
    return value;
  }

 private:
  void grow() {
    std::vector<T> grown(slots_.empty() ? 8 : 2 * slots_.size());
    for (std::size_t i = 0; i < count_; ++i) {
      grown[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace vini::sim
