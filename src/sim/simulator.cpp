#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

namespace rtec {

std::uint32_t Simulator::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t idx = free_slots_.back();
    free_slots_.pop_back();
    return idx;
  }
  assert(slot_count_ < kSlotMask && "live-slot space exhausted");
  if ((slot_count_ & kSlotChunkMask) == 0)
    slot_chunks_.push_back(
        std::make_unique<detail::InlineCallable[]>(kSlotChunkMask + 1));
  slot_seq_.push_back(0);
  return slot_count_++;
}

void Simulator::release_slot(std::uint32_t idx) {
  // The callable is NOT destroyed here: emplace() on reuse (or teardown)
  // does it. Cancellation therefore never touches the slot's cache line —
  // only the dense identity array.
  slot_seq_[idx] = 0;  // invalidates outstanding heap entries / handles
  free_slots_.push_back(idx);
  --live_;
}

void Simulator::cancel(TimerHandle& h) {
  const std::uint32_t idx = slot_of(h.seqslot_);
  if (h.seqslot_ != 0 && idx < slot_count_ && slot_seq_[idx] == h.seqslot_) {
    release_slot(idx);
    ++stats_.cancelled;
    // Lazy deletion: reclaim heap memory once cancelled entries dominate.
    const std::size_t entries = heap_entries();
    if (entries >= 64 && entries - live_ > entries / 2) compact();
  }
  h = TimerHandle{};
}

bool Simulator::step() {
  while (const Entry* const f = front()) {
    const Entry e = *f;
    pop_front();
    const std::uint32_t idx = slot_of(e.seqslot);
    if (slot_seq_[idx] != e.seqslot) continue;  // cancelled; drop lazily
    assert(e.at >= now_);
    now_ = e.at;
    // Invalidate the slot's handles and queue entries *before* invoking,
    // but keep it off the free list until the callback returns: the
    // callable runs in place (no move), so the slot must not be recycled by
    // anything the callback schedules. Cancelling the fired timer from
    // inside its own callback is an identity-mismatch no-op, exactly as
    // after firing.
    slot_seq_[idx] = 0;
    --live_;
    ++stats_.fired;
    slot(idx).consume();
    free_slots_.push_back(idx);
    return true;
  }
  return false;
}

void Simulator::run_until(TimePoint t) {
  assert(t >= now_);
  while (const Entry* const f = front()) {
    // Skip cancelled entries without advancing time.
    if (stale(*f)) {
      pop_front();
      continue;
    }
    if (f->at > t) break;
    step();
  }
  now_ = t;
}

void Simulator::run_before(TimePoint h) {
  while (const Entry* const f = front()) {
    if (stale(*f)) {
      pop_front();
      continue;
    }
    if (f->at >= h) return;
    step();
  }
}

TimePoint Simulator::peek_next_time() {
  for (const Entry* f = front(); f != nullptr; f = front()) {
    if (!stale(*f)) return f->at;
    pop_front();
  }
  return TimePoint::max();
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::push(Entry e) {
  // An occupied register beats every heap entry, so beating it suffices.
  const bool first = front_.seqslot != 0
                         ? earlier(e, front_)
                         : heap_.empty() || earlier(e, heap_.front());
  if (first) {
    std::swap(e, front_);  // e: the displaced occupant, if any
    if (e.seqslot == 0) return;
  }
  heap_.push_back(e);
  sift_up(heap_.size() - 1);
}

void Simulator::heap_pop_front() {
  assert(!heap_.empty());
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void Simulator::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::sift_down(std::size_t i) {
  const Entry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c)
      if (earlier(heap_[c], heap_[best])) best = c;
    if (!earlier(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void Simulator::compact() {
  ++stats_.compactions;
  if (front_.seqslot != 0 && stale(front_)) front_.seqslot = 0;
  std::erase_if(heap_, [this](const Entry& e) { return stale(e); });
  if (heap_.size() <= 1) return;
  // Re-heapify bottom-up; ordering is fully determined by (time, seq), so
  // the rebuilt heap dequeues in exactly the same order as the lazy one.
  for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;)
    sift_down(i);
}

}  // namespace rtec
