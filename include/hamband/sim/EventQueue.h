//===- hamband/sim/EventQueue.h - Discrete-event priority queue -*- C++ -*-===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cancellable min-priority queue of timestamped events. Ties are broken
/// by insertion order so that executions are fully deterministic. Events in
/// the earliest time bucket form the *enabled set*: schedule explorers can
/// enumerate them (with their EventLabels) and pop any member, which is the
/// choice-point API `hamband_mc` forks on.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_SIM_EVENTQUEUE_H
#define HAMBAND_SIM_EVENTQUEUE_H

#include "hamband/sim/EventLabel.h"
#include "hamband/sim/SimTime.h"
#include "hamband/support/UniqueFunction.h"

#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

namespace hamband {
namespace sim {

/// Opaque handle used to cancel a scheduled event.
using EventId = std::uint64_t;

/// An invalid event handle; cancel() on it is a no-op.
inline constexpr EventId InvalidEventId = 0;

/// An event's closure.
using EventFn = UniqueFunction<void()>;

/// A fired event popped from the queue.
struct Event {
  SimTime At = 0;
  EventId Id = InvalidEventId;
  EventLabel Label;
  EventFn Fn;
  /// When set, the event still fires (it advances the clock and counts as
  /// executed) but Fn runs only if *Guard is true at that moment: how a
  /// crashed node's pending CPU work is dropped without wrapping it.
  const bool *Guard = nullptr;
};

/// One member of the enabled set (earliest time bucket), in canonical
/// insertion order.
struct EnabledEvent {
  EventId Id = InvalidEventId;
  SimTime At = 0;
  EventLabel Label;
};

/// Min-priority queue of events ordered by (time, insertion sequence).
///
/// Events sharing a timestamp live in one insertion-ordered bucket, so the
/// default pop order is identical to a (time, id) heap. Cancellation is
/// lazy: the payload is dropped immediately and the stale id is skipped
/// when its bucket reaches the front.
class EventQueue {
public:
  /// Enqueues \p Fn to fire at absolute time \p At. Returns a handle that
  /// can later be passed to cancel().
  EventId push(SimTime At, EventFn Fn) {
    return push(At, EventLabel(), std::move(Fn));
  }

  /// Enqueues a labeled event (see EventLabel for independence semantics),
  /// optionally guarded (see Event::Guard).
  EventId push(SimTime At, EventLabel Label, EventFn Fn,
               const bool *Guard = nullptr);

  /// Cancels a previously pushed event. Cancelling an already-fired or
  /// invalid handle is a harmless no-op.
  void cancel(EventId Id);

  /// Pops the earliest live event, or returns false when the queue is empty.
  bool pop(Event &Out);

  /// Pops the N-th member (insertion order) of the enabled set. N must be
  /// < enabledCount(). Returns false when the queue is empty.
  bool popNth(std::size_t N, Event &Out);

  /// Number of live events in the earliest time bucket.
  std::size_t enabledCount();

  /// The enabled set in canonical (insertion id) order. Index i here is the
  /// N accepted by popNth().
  std::vector<EnabledEvent> enabled();

  /// Returns true when no live events remain.
  bool empty() const { return LiveCount == 0; }

  /// Number of live (non-cancelled) events.
  std::size_t size() const { return LiveCount; }

  /// Time of the earliest live event; SimTimeMax when empty.
  SimTime nextTime();

  /// Order-sensitive hash of the pending-event multiset: folds (time,
  /// label) for every live event in (time, insertion) order. Event ids are
  /// excluded so that two executions reaching the same pending work see the
  /// same digest even if their id counters diverged.
  std::uint64_t digest() const;

private:
  struct Payload {
    EventFn Fn;
    EventLabel Label;
    const bool *Guard = nullptr;
  };

  /// Drops stale (cancelled) ids from the front bucket, erasing emptied
  /// buckets. Returns false when no live events remain.
  bool compactFront();

  std::map<SimTime, std::deque<EventId>> Buckets;
  std::unordered_map<EventId, Payload> Payloads;
  EventId NextId = 1;
  std::size_t LiveCount = 0;
};

} // namespace sim
} // namespace hamband

#endif // HAMBAND_SIM_EVENTQUEUE_H
