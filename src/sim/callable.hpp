#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

/// \file callable.hpp
/// Allocation-free type-erased callables for the event kernel.
///
/// `InlineCallable` stores small callables (up to kInlineBytes of captures)
/// directly inside the event slot — no heap traffic at all on the dominant
/// scheduling paths. Medium-sized captures fall back to a slab allocator
/// (`CallableSlab`) that recycles fixed-size blocks through a free list, so
/// steady-state simulation performs zero allocator calls. Only outsized
/// captures (> CallableSlab::kBlockBytes) reach `operator new`.

namespace rtec::detail {

/// Fixed-block slab with an intrusive free list. Blocks are carved from
/// geometrically growing chunks and never returned to the OS until the slab
/// is destroyed — timer churn therefore reuses the same hot cache lines.
class CallableSlab {
 public:
  static constexpr std::size_t kBlockBytes = 128;

  CallableSlab() = default;
  CallableSlab(const CallableSlab&) = delete;
  CallableSlab& operator=(const CallableSlab&) = delete;

  void* allocate() {
    if (free_ == nullptr) grow();
    Block* b = free_;
    free_ = b->next;
    return b;
  }

  void deallocate(void* p) {
    Block* b = static_cast<Block*>(p);
    b->next = free_;
    free_ = b;
  }

  /// Total blocks ever carved (diagnostics; bounded-memory tests).
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  union Block {
    Block* next;
    alignas(std::max_align_t) std::byte bytes[kBlockBytes];
  };

  void grow() {
    const std::size_t count = chunks_.empty() ? 16 : chunks_.back().count * 2;
    chunks_.push_back({std::make_unique<Block[]>(count), count});
    Block* base = chunks_.back().blocks.get();
    for (std::size_t i = 0; i < count; ++i) {
      base[i].next = free_;
      free_ = &base[i];
    }
    capacity_ += count;
  }

  struct Chunk {
    std::unique_ptr<Block[]> blocks;
    std::size_t count = 0;
  };

  Block* free_ = nullptr;
  std::vector<Chunk> chunks_;
  std::size_t capacity_ = 0;
};

/// Pinned type-erased `void()` callable with small-buffer optimisation and
/// slab-backed fallback. Unlike `std::function` it never allocates for
/// captures up to kInlineBytes, recycles slab blocks above that, and skips
/// the destructor indirection entirely for trivial captures. The whole
/// object is exactly one cache line, which is also what bounds the event
/// kernel's per-slot cold-memory cost.
class alignas(64) InlineCallable {
 public:
  /// Inline capture budget. 32 bytes covers the kernel-internal hot-path
  /// lambdas (a few pointers/integers) and a whole `std::function<void()>`;
  /// bigger captures (e.g. the bus end-of-transmission continuation or
  /// the HRT ready-slot timer) take a recycled slab block.
  static constexpr std::size_t kInlineBytes = 32;
  /// Inline storage alignment; stricter captures go to the slab.
  static constexpr std::size_t kInlineAlign = 8;

  InlineCallable() = default;
  InlineCallable(const InlineCallable&) = delete;
  InlineCallable(InlineCallable&&) = delete;
  InlineCallable& operator=(const InlineCallable&) = delete;
  InlineCallable& operator=(InlineCallable&&) = delete;

  ~InlineCallable() { reset(); }

  /// Constructs `f` in place, choosing inline / slab / heap storage by size.
  /// Any previous occupant is destroyed first: cancellation defers the
  /// destruction of the old callable to this point (or to teardown), which
  /// keeps the cancel path from touching the slot's cache line at all.
  template <typename F>
  void emplace(F&& f, CallableSlab& slab) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_v<Fn&>, "callable must be invocable");
    reset();
    invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= kInlineAlign) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      kind_ = Kind::kInline;
      // destroy_ == nullptr means "trivial": reset() skips the indirect
      // call — the dominant case (kernel lambdas capture pointers and
      // integers).
      if constexpr (std::is_trivially_destructible_v<Fn>) {
        destroy_ = nullptr;
      } else {
        destroy_ = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
      }
    } else if constexpr (sizeof(Fn) <= CallableSlab::kBlockBytes &&
                         alignof(Fn) <= alignof(std::max_align_t)) {
      obj_ = ::new (slab.allocate()) Fn(std::forward<F>(f));
      slab_ = &slab;
      kind_ = Kind::kSlab;
      if constexpr (std::is_trivially_destructible_v<Fn>) {
        destroy_ = nullptr;
      } else {
        destroy_ = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
      }
    } else {
      obj_ = new Fn(std::forward<F>(f));
      kind_ = Kind::kHeap;
      destroy_ = [](void* p) { delete static_cast<Fn*>(p); };
    }
  }

  void operator()() {
    assert(kind_ != Kind::kEmpty);
    invoke_(target());
  }

  [[nodiscard]] explicit operator bool() const { return kind_ != Kind::kEmpty; }

  /// Invoke + destroy + clear in one pass over the slot's cache line (the
  /// fire hot path). The slot must be pinned for the duration of the call:
  /// the kernel keeps a firing slot off the free list, so nothing can
  /// emplace over it from inside the callback.
  void consume() {
    assert(kind_ != Kind::kEmpty);
    if (kind_ == Kind::kInline) {
      void (*const destroy)(void*) = destroy_;
      invoke_(buf_);
      if (destroy != nullptr) destroy(buf_);
    } else {
      void* const obj = obj_;
      const Kind k = kind_;
      void (*const destroy)(void*) = destroy_;
      CallableSlab* const slab = slab_;
      invoke_(obj);
      if (k == Kind::kSlab) {
        if (destroy != nullptr) destroy(obj);
        slab->deallocate(obj);
      } else {
        destroy(obj);  // kHeap: destroy_ also frees
      }
    }
    clear_fields();
  }

  /// Destroys the stored callable (returning slab blocks to their slab).
  void reset() noexcept {
    switch (kind_) {
      case Kind::kEmpty:
        return;
      case Kind::kInline:
        if (destroy_ != nullptr) destroy_(buf_);
        break;
      case Kind::kSlab:
        if (destroy_ != nullptr) destroy_(obj_);
        slab_->deallocate(obj_);
        break;
      case Kind::kHeap:
        destroy_(obj_);
        break;
    }
    clear_fields();
  }

 private:
  enum class Kind : unsigned char { kEmpty, kInline, kSlab, kHeap };

  [[nodiscard]] void* target() {
    return kind_ == Kind::kInline ? static_cast<void*>(buf_) : obj_;
  }

  /// Marks the callable empty. The remaining fields may go stale: emplace()
  /// rewrites every one it will read, and nothing reads them while kind_ is
  /// kEmpty.
  void clear_fields() noexcept {
    invoke_ = nullptr;
    kind_ = Kind::kEmpty;
  }

  void (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
  CallableSlab* slab_ = nullptr;
  Kind kind_ = Kind::kEmpty;
  union {
    void* obj_;  ///< slab/heap storage (valid when kind_ is kSlab/kHeap)
    alignas(kInlineAlign) std::byte buf_[kInlineBytes];  ///< inline storage
  };
};

/// Exactly one cache line, line-aligned: a slot chunk is a dense array of
/// these, so under the sharded engine two kernels never share a slot cache
/// line and a worker's slot writes cannot false-share with another shard's.
static_assert(sizeof(InlineCallable) == 64 && alignof(InlineCallable) == 64,
              "event-slot callable must be exactly one aligned cache line");

}  // namespace rtec::detail
