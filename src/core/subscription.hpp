#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/attributes.hpp"
#include "core/errors.hpp"
#include "core/event.hpp"

/// \file subscription.hpp
/// Per-channel bookkeeping the three class engines share: the channel end
/// (subject, etag, exception handler) of every publication and
/// subscription, and the subscriber-side event buffering — the "predefined
/// memory area" of §2.2.1 in which the middleware stores an event before
/// invoking the application's notification handler, which then retrieves
/// it with getEvent().

namespace rtec {

/// Bounded FIFO of events with a capacity fixed at subscribe time.
class EventQueue {
 public:
  explicit EventQueue(std::size_t capacity) : buf_(capacity) {}

  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ == buf_.size(); }

  /// False (event dropped) when full — surfaced as kQueueOverflow.
  [[nodiscard]] bool push(Event e) {
    if (full()) return false;
    buf_[(head_ + size_) % buf_.size()] = std::move(e);
    ++size_;
    return true;
  }

  [[nodiscard]] std::optional<Event> pop() {
    if (empty()) return std::nullopt;
    Event e = std::move(buf_[head_]);
    head_ = (head_ + 1) % buf_.size();
    --size_;
    return e;
  }

 private:
  std::vector<Event> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// One end of a channel on this node, publication or subscription, of any
/// class: what the application's exception handler reports about.
struct ChannelEnd {
  Subject subject;
  Etag etag = 0;
  ExceptionHandler on_exception;

  ChannelEnd(Subject s, Etag tag, ExceptionHandler handler)
      : subject{s}, etag{tag}, on_exception{std::move(handler)} {}

  /// Reports `e`, detected at local time `now`, to the application.
  void raise(ChannelError e, TimePoint now) const {
    if (on_exception) on_exception({e, subject, now});
  }
};

/// State common to subscriptions of every channel class, set up from the
/// subscribe() attribute list (attr::QueueCapacity, attr::LocalOnly).
struct SubscriptionBase : ChannelEnd {
  bool local_only = false;
  bool cancelled = false;
  EventQueue queue;
  NotificationHandler notify;

  SubscriptionBase(Subject s, Etag tag, const AttributeList& attrs,
                   NotificationHandler not_handler,
                   ExceptionHandler exception_handler)
      : ChannelEnd{s, tag, std::move(exception_handler)},
        local_only{attrs.has<attr::LocalOnly>()},
        queue{attrs.get<attr::QueueCapacity>()
                  .value_or(attr::QueueCapacity{})
                  .events},
        notify{std::move(not_handler)} {}

  /// The event a received `content` becomes for this subscription, stamped
  /// with the local reception time; `remote` marks a forwarded frame.
  [[nodiscard]] Event received(std::vector<std::uint8_t> content,
                               TimePoint now, bool remote) const {
    Event e{subject, std::move(content)};
    e.attributes.timestamp = now;
    e.attributes.remote = remote;
    return e;
  }

  /// Stores + notifies; raises kQueueOverflow when the application is not
  /// draining fast enough.
  void deliver(Event e, TimePoint now) {
    if (!queue.push(std::move(e))) {
      raise(ChannelError::kQueueOverflow, now);
      return;
    }
    if (notify) notify();
  }
};

}  // namespace rtec
