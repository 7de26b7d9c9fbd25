#pragma once

#include <cassert>
#include <cstdint>
#include <map>
#include <optional>

#include "util/time_types.hpp"

/// \file edf_queue.hpp
/// Earliest-deadline-first send queue for SRT messages. Only the head of
/// this queue occupies a controller TX mailbox; the rest wait here. Keys
/// are (transmission deadline, arrival sequence) so equal deadlines resolve
/// in FIFO order deterministically.

namespace rtec {

template <typename T>
class EdfQueue {
 public:
  /// Stable handle for removing a queued entry (expiry, cancellation).
  struct Handle {
    TimePoint deadline;
    std::uint64_t seq = 0;
    friend auto operator<=>(const Handle&, const Handle&) = default;
  };

  /// Inserts an item; returns its removal handle.
  Handle push(TimePoint deadline, T item) {
    const Handle h{deadline, next_seq_++};
    entries_.emplace(h, std::move(item));
    return h;
  }

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Earliest-deadline entry, if any.
  [[nodiscard]] const T* peek() const {
    return entries_.empty() ? nullptr : &entries_.begin()->second;
  }
  [[nodiscard]] TimePoint earliest_deadline() const {
    assert(!entries_.empty());
    return entries_.begin()->first.deadline;
  }

  /// Removes and returns the earliest-deadline entry.
  [[nodiscard]] std::optional<T> pop() {
    if (entries_.empty()) return std::nullopt;
    auto it = entries_.begin();
    T item = std::move(it->second);
    entries_.erase(it);
    return item;
  }

  /// Removes an arbitrary entry; returns it if still present.
  [[nodiscard]] std::optional<T> remove(const Handle& h) {
    auto it = entries_.find(h);
    if (it == entries_.end()) return std::nullopt;
    T item = std::move(it->second);
    entries_.erase(it);
    return item;
  }

  [[nodiscard]] bool contains(const Handle& h) const {
    return entries_.find(h) != entries_.end();
  }

 private:
  std::map<Handle, T> entries_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace rtec
