//===- sim/EventQueue.cpp - Discrete-event priority queue ----------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/sim/EventQueue.h"

#include <algorithm>
#include <cassert>

using namespace hamband::sim;

const char *hamband::sim::eventKindName(EventKind K) {
  switch (K) {
  case EventKind::Unknown:
    return "unknown";
  case EventKind::Timer:
    return "timer";
  case EventKind::CpuTask:
    return "cpu";
  case EventKind::OneSidedDelivery:
    return "write";
  case EventKind::ReadSample:
    return "read";
  case EventKind::TwoSidedDelivery:
    return "send";
  case EventKind::Completion:
    return "completion";
  }
  return "?";
}

EventId EventQueue::push(SimTime At, EventLabel Label, EventFn Fn,
                         const bool *Guard) {
  EventId Id = NextId++;
  Buckets[At].push_back(Id);
  Payloads.emplace(Id, Payload{std::move(Fn), Label, Guard});
  ++LiveCount;
  return Id;
}

void EventQueue::cancel(EventId Id) {
  if (Id == InvalidEventId)
    return;
  auto It = Payloads.find(Id);
  if (It == Payloads.end())
    return; // Already fired or never existed.
  Payloads.erase(It); // The stale bucket entry is skipped lazily.
  assert(LiveCount > 0 && "live count underflow");
  --LiveCount;
}

bool EventQueue::compactFront() {
  while (!Buckets.empty()) {
    std::deque<EventId> &Front = Buckets.begin()->second;
    Front.erase(std::remove_if(Front.begin(), Front.end(),
                               [this](EventId Id) {
                                 return Payloads.find(Id) == Payloads.end();
                               }),
                Front.end());
    if (!Front.empty())
      return true;
    Buckets.erase(Buckets.begin());
  }
  return false;
}

bool EventQueue::pop(Event &Out) { return popNth(0, Out); }

bool EventQueue::popNth(std::size_t N, Event &Out) {
  if (!compactFront())
    return false;
  auto Bucket = Buckets.begin();
  std::deque<EventId> &Front = Bucket->second;
  assert(N < Front.size() && "popNth index out of the enabled set");
  EventId Id = Front[N];
  Front.erase(Front.begin() + static_cast<std::ptrdiff_t>(N));
  auto It = Payloads.find(Id);
  assert(It != Payloads.end() && "compacted bucket entry without payload");
  Out.At = Bucket->first;
  Out.Id = Id;
  Out.Label = It->second.Label;
  Out.Fn = std::move(It->second.Fn);
  Out.Guard = It->second.Guard;
  Payloads.erase(It);
  if (Front.empty())
    Buckets.erase(Bucket);
  --LiveCount;
  return true;
}

std::size_t EventQueue::enabledCount() {
  if (!compactFront())
    return 0;
  return Buckets.begin()->second.size();
}

std::vector<EnabledEvent> EventQueue::enabled() {
  std::vector<EnabledEvent> Out;
  if (!compactFront())
    return Out;
  auto Bucket = Buckets.begin();
  Out.reserve(Bucket->second.size());
  for (EventId Id : Bucket->second) {
    auto It = Payloads.find(Id);
    assert(It != Payloads.end() && "compacted bucket entry without payload");
    Out.push_back(EnabledEvent{Id, Bucket->first, It->second.Label});
  }
  return Out;
}

SimTime EventQueue::nextTime() {
  if (!compactFront())
    return SimTimeMax;
  return Buckets.begin()->first;
}

std::uint64_t EventQueue::digest() const {
  std::uint64_t H = 0x243f6a8885a308d3ull;
  auto Mix = [&H](std::uint64_t V) {
    H ^= V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
  };
  for (const auto &[At, Ids] : Buckets)
    for (EventId Id : Ids) {
      auto It = Payloads.find(Id);
      if (It == Payloads.end())
        continue; // Cancelled.
      Mix(static_cast<std::uint64_t>(At));
      Mix(It->second.Label.digest());
    }
  return H;
}
