//===- rdma/ShmTransport.cpp - Shared-memory transport --------------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/rdma/ShmTransport.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

using namespace hamband;
using namespace hamband::rdma;

namespace {

std::uint64_t permKey(NodeId Target, NodeId Writer, RegionKey Key) {
  return (static_cast<std::uint64_t>(Target) << 48) |
         (static_cast<std::uint64_t>(Writer) << 32) | Key;
}

} // namespace

thread_local const ShmTransport::ShmNode *ShmTransport::CurrentNode = nullptr;

void ShmTransport::TaskQueue::push(Task T) {
  if (Count == Ring.size()) {
    // Full: unroll into a ring twice the size.
    std::vector<Task> Bigger(std::max<std::size_t>(16, 2 * Ring.size()));
    for (std::size_t I = 0; I < Count; ++I)
      Bigger[I] = std::move(Ring[(Head + I) % Ring.size()]);
    Ring.swap(Bigger);
    Head = 0;
  }
  Ring[(Head + Count) % Ring.size()] = std::move(T);
  ++Count;
}

ShmTransport::Task ShmTransport::TaskQueue::pop() {
  assert(Count > 0 && "pop from an empty task queue");
  Task T = std::move(Ring[Head]);
  Head = (Head + 1) % Ring.size();
  --Count;
  return T;
}

void ShmTransport::TaskQueue::clear() {
  // Release whatever the queued closures captured; keep the storage.
  for (Task &T : Ring)
    T = Task();
  Head = Count = 0;
}

namespace {
/// Heap order: the earliest (deadline, seq) at the front.
struct LaterTimer {
  template <typename T> bool operator()(const T &A, const T &B) const {
    return A.Deadline != B.Deadline ? A.Deadline > B.Deadline : A.Seq > B.Seq;
  }
};
} // namespace

void ShmTransport::TimerHeap::push(std::uint64_t Deadline, TaskFn Fn) {
  Heap.push_back(Timer{Deadline, NextSeq++, std::move(Fn)});
  std::push_heap(Heap.begin(), Heap.end(), LaterTimer());
}

void ShmTransport::TimerHeap::promoteDue(std::uint64_t Until,
                                         TaskQueue &Queue) {
  while (!Heap.empty() && Heap.front().Deadline <= Until) {
    std::pop_heap(Heap.begin(), Heap.end(), LaterTimer());
    Task T;
    T.Fn = std::move(Heap.back().Fn);
    T.NeedsAlive = false;
    Heap.pop_back();
    Queue.push(std::move(T));
  }
}

ShmTransport::ShmTransport(unsigned NumNodes, NetworkModel Model,
                           std::size_t MemBytesPerNode)
    : Model(Model), Epoch(std::chrono::steady_clock::now()) {
  Nodes.reserve(NumNodes);
  for (unsigned N = 0; N < NumNodes; ++N)
    Nodes.push_back(std::make_unique<ShmNode>(MemBytesPerNode));
  // Workers start idle; every structure they may touch exists by now.
  for (auto &N : Nodes)
    N->Worker = std::thread([this, Node = N.get()]() { workerLoop(*Node); });
}

ShmTransport::~ShmTransport() { shutdown(); }

sim::SimTime ShmTransport::now() const {
  return static_cast<sim::SimTime>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Epoch)
          .count());
}

MemoryRegion &ShmTransport::memory(NodeId Node) {
  assert(Node < Nodes.size());
  return Nodes[Node]->Mem;
}

const MemoryRegion &ShmTransport::memory(NodeId Node) const {
  assert(Node < Nodes.size());
  return Nodes[Node]->Mem;
}

void ShmTransport::workerLoop(ShmNode &N) {
  CurrentNode = &N;
  std::unique_lock<std::mutex> L(N.Mu);
  while (!Stop.load(std::memory_order_acquire)) {
    // Promote due timers into the task queue. Timers fire even on a
    // crashed node (their Task is marked NeedsAlive=false), matching raw
    // simulator events; the closures re-check whatever aliveness they
    // care about. A rung doorbell makes every write-woken timer due; the
    // acquire exchange orders the ringing peer's landed bytes before
    // whatever runs next.
    std::uint64_t NowNs = now();
    bool Rung = N.Bell.load(std::memory_order_relaxed) &&
                N.Bell.exchange(false, std::memory_order_acquire);
    N.Timers.promoteDue(NowNs, N.Queue);
    N.WakeTimers.promoteDue(Rung ? UINT64_MAX : NowNs, N.Queue);
    if (!N.Paused && !N.Queue.empty()) {
      // Running is set and cleared under Mu, so a pauser that finds it
      // clear also sees every effect of the task (the closure's captures
      // are released before it clears).
      Task T = N.Queue.pop();
      N.Running = true;
      L.unlock();
      if (!T.NeedsAlive || N.Alive.load(std::memory_order_acquire))
        T.run();
      T = Task();
      L.lock();
      N.Running = false;
      if (N.PauserWaiting)
        N.PauseCv.notify_one();
      continue;
    }
    // Park, also while paused with tasks queued. Parked is stored before
    // the bell is re-read, and a ringing peer stores the bell before it
    // reads Parked (all seq_cst), so at least one side sees the other:
    // either this re-read finds the bell, or the peer finds Parked and
    // notifies under Mu, which it cannot take before this thread is
    // waiting.
    N.Parked.store(true, std::memory_order_seq_cst);
    if (N.Bell.load(std::memory_order_seq_cst)) {
      N.Parked.store(false, std::memory_order_relaxed);
      continue;
    }
    std::uint64_t Deadline = UINT64_MAX;
    if (!N.Timers.empty())
      Deadline = N.Timers.nextDeadline();
    if (!N.WakeTimers.empty())
      Deadline = std::min(Deadline, N.WakeTimers.nextDeadline());
    if (Deadline == UINT64_MAX)
      N.Cv.wait(L);
    else
      N.Cv.wait_until(L, Epoch + std::chrono::nanoseconds(Deadline));
    N.Parked.store(false, std::memory_order_relaxed);
  }
}

void ShmTransport::enqueue(NodeId Node, Task T) {
  assert(Node < Nodes.size());
  ShmNode &N = *Nodes[Node];
  bool Wake;
  {
    std::lock_guard<std::mutex> G(N.Mu);
    N.Queue.push(std::move(T));
    // A worker that is not parked checks the queue before it parks.
    Wake = N.Parked.load(std::memory_order_relaxed);
  }
  if (Wake)
    N.Cv.notify_one();
}

void ShmTransport::addTimer(ShmNode &N, TimerHeap &Heap,
                            sim::SimDuration Delay, TaskFn Fn) {
  std::uint64_t Deadline = now() + Delay;
  bool Wake;
  {
    std::lock_guard<std::mutex> G(N.Mu);
    Heap.push(Deadline, std::move(Fn));
    // A parked worker must recompute its wait deadline.
    Wake = N.Parked.load(std::memory_order_relaxed);
  }
  if (Wake)
    N.Cv.notify_one();
}

void ShmTransport::ringDoorbell(ShmNode &N) {
  N.Bell.store(true, std::memory_order_seq_cst);
  if (N.Parked.load(std::memory_order_seq_cst)) {
    std::lock_guard<std::mutex> G(N.Mu);
    N.Cv.notify_one();
  }
}

void ShmTransport::postWrite(NodeId Src, NodeId Dst, MemOffset DstOff,
                             const Bytes &Data, RegionKey Key,
                             CompletionFn OnComplete, unsigned Lane) {
  (void)Lane;
  assert(Src < Nodes.size() && Dst < Nodes.size());
  if (!Nodes[Src]->Alive.load(std::memory_order_acquire))
    return; // A crashed initiator posts nothing (its CPU is stopped).
  VerbTotals &Posted = Nodes[Src]->Posted;
  Posted.Writes.fetch_add(1, std::memory_order_relaxed);
  Posted.Bytes.fetch_add(Data.size(), std::memory_order_relaxed);
  if (CtrWrite)
    CtrWrite->add();
  if (CtrBytes)
    CtrBytes->add(Data.size());
  WcStatus St = WcStatus::Success;
  if (!hasWritePermission(Dst, Src, Key)) {
    St = WcStatus::AccessError;
  } else {
    // Executed inline by the posting thread: per-(src,dst) FIFO is the
    // thread's own program order, and the concurrent MemoryRegion stores
    // bytes in increasing address order with release semantics, so a
    // record's trailing canary publishes everything before it.
    Nodes[Dst]->Mem.write(DstOff, Data.data(), Data.size());
    // The bytes have landed: bring the destination's write-woken timers
    // forward. A node's write to its own memory wakes nobody.
    if (Src != Dst)
      ringDoorbell(*Nodes[Dst]);
  }
  if (OnComplete) {
    Task T;
    T.Done = std::move(OnComplete);
    T.Status = St;
    enqueue(Src, std::move(T));
  }
}

void ShmTransport::postRead(NodeId Src, NodeId Dst, MemOffset DstOff,
                            std::size_t Len, ReadCompletionFn OnComplete,
                            unsigned Lane) {
  (void)Lane;
  assert(Src < Nodes.size() && Dst < Nodes.size());
  if (!Nodes[Src]->Alive.load(std::memory_order_acquire))
    return;
  Nodes[Src]->Posted.Reads.fetch_add(1, std::memory_order_relaxed);
  if (CtrRead)
    CtrRead->add();
  // The Transport contract promises a consistent snapshot; double-read
  // until stable, then validate-by-structure at the caller (canaries,
  // sequence numbers) exactly as on real RDMA hardware.
  std::vector<std::uint8_t> Data = Nodes[Dst]->Mem.sliceStable(DstOff, Len);
  if (OnComplete) {
    Task T;
    T.Fn = [OnComplete = std::move(OnComplete),
            Data = std::move(Data)]() mutable {
      OnComplete(WcStatus::Success, std::move(Data));
    };
    enqueue(Src, std::move(T));
  }
}

void ShmTransport::send(NodeId Src, NodeId Dst, const Bytes &Msg,
                        CompletionFn OnComplete, unsigned Lane) {
  (void)Lane;
  assert(Src < Nodes.size() && Dst < Nodes.size());
  if (!Nodes[Src]->Alive.load(std::memory_order_acquire))
    return;
  Nodes[Src]->Posted.Sends.fetch_add(1, std::memory_order_relaxed);
  if (CtrSend)
    CtrSend->add();
  ShmNode *D = Nodes[Dst].get();
  Task Delivery;
  Delivery.Fn = [D, Src, Msg]() {
    std::shared_ptr<RecvHandler> H;
    {
      std::lock_guard<std::mutex> G(D->Mu);
      H = D->OnRecv;
    }
    if (H && *H)
      (*H)(Src, Msg);
  };
  enqueue(Dst, std::move(Delivery));
  // TCP-like: the sender's completion succeeds whether or not the
  // receiver is alive to process the message.
  if (OnComplete) {
    Task T;
    T.Done = std::move(OnComplete);
    enqueue(Src, std::move(T));
  }
}

void ShmTransport::setRecvHandler(NodeId Node, RecvHandler Handler) {
  assert(Node < Nodes.size());
  auto H = std::make_shared<RecvHandler>(std::move(Handler));
  std::lock_guard<std::mutex> G(Nodes[Node]->Mu);
  Nodes[Node]->OnRecv = std::move(H);
}

void ShmTransport::runOnCpu(NodeId Node, sim::SimDuration Cost, TaskFn Fn,
                            unsigned Lane) {
  (void)Cost;
  (void)Lane;
  assert(Node < Nodes.size());
  if (!Nodes[Node]->Alive.load(std::memory_order_acquire))
    return;
  Task T;
  T.Fn = std::move(Fn);
  enqueue(Node, std::move(T));
}

void ShmTransport::runAfter(NodeId Node, sim::SimDuration Delay, TaskFn Fn) {
  assert(Node < Nodes.size());
  ShmNode &N = *Nodes[Node];
  addTimer(N, N.Timers, Delay, std::move(Fn));
}

void ShmTransport::runAfterOrWrite(NodeId Node, sim::SimDuration Delay,
                                   TaskFn Fn) {
  assert(Node < Nodes.size());
  ShmNode &N = *Nodes[Node];
  addTimer(N, N.WakeTimers, Delay, std::move(Fn));
}

void ShmTransport::callOn(NodeId Node, TaskFn Fn) {
  assert(Node < Nodes.size());
  ShmNode &N = *Nodes[Node];
  if (CurrentNode == &N) {
    // Already in Node's context: run inline, as the simulator does. A
    // crashed node runs nothing, as its queue would drop the task.
    if (N.Alive.load(std::memory_order_acquire))
      Fn();
    return;
  }
  Task T;
  T.Fn = std::move(Fn);
  enqueue(Node, std::move(T));
}

RegionKey ShmTransport::createRegionKey() {
  std::lock_guard<std::mutex> G(PermMu);
  return NextRegionKey++;
}

void ShmTransport::setWritePermission(NodeId Target, NodeId Writer,
                                      RegionKey Key, bool Allowed) {
  assert(Key != UnprotectedRegion && "cannot restrict the null region");
  std::lock_guard<std::mutex> G(PermMu);
  Perm[permKey(Target, Writer, Key)] = Allowed;
}

bool ShmTransport::hasWritePermission(NodeId Target, NodeId Writer,
                                      RegionKey Key) const {
  if (Key == UnprotectedRegion)
    return true;
  std::lock_guard<std::mutex> G(PermMu);
  auto It = Perm.find(permKey(Target, Writer, Key));
  return It == Perm.end() ? true : It->second;
}

void ShmTransport::crash(NodeId Node) {
  assert(Node < Nodes.size());
  Nodes[Node]->Alive.store(false, std::memory_order_release);
  // Queued NeedsAlive tasks are dropped at dispatch; memory stays
  // remotely accessible, per the RDMA failure model.
}

bool ShmTransport::isAlive(NodeId Node) const {
  assert(Node < Nodes.size());
  return Nodes[Node]->Alive.load(std::memory_order_acquire);
}

void ShmTransport::setFaultHook(FabricFaultHook *H) {
  assert(H == nullptr &&
         "fault injection is sim-only; see docs/transport.md");
  (void)H;
}

void ShmTransport::setObs(obs::Registry &R) {
  CtrWrite = &R.counter("rdma.write");
  CtrRead = &R.counter("rdma.read");
  CtrSend = &R.counter("rdma.send");
  CtrBytes = &R.counter("rdma.bytes_written");
}

std::uint64_t
ShmTransport::sumPosted(std::atomic<std::uint64_t> VerbTotals::*Field) const {
  std::uint64_t Sum = 0;
  for (const auto &N : Nodes)
    Sum += (N->Posted.*Field).load(std::memory_order_relaxed);
  return Sum;
}

void ShmTransport::pauseWorld() {
  PauserMu.lock();
  for (auto &NP : Nodes) {
    ShmNode &N = *NP;
    assert(CurrentNode != &N && "a worker cannot wait for its own task");
    std::unique_lock<std::mutex> L(N.Mu);
    N.Paused = true;
    if (N.Running) {
      N.PauserWaiting = true;
      N.PauseCv.wait(L, [&N]() { return !N.Running; });
      N.PauserWaiting = false;
    }
  }
}

void ShmTransport::resumeWorld() {
  for (auto &N : Nodes) {
    std::lock_guard<std::mutex> G(N->Mu);
    N->Paused = false;
    // A worker that is not parked checks Paused before it parks.
    if (N->Parked.load(std::memory_order_relaxed))
      N->Cv.notify_one();
  }
  PauserMu.unlock();
}

void ShmTransport::shutdown() {
  if (Joined)
    return;
  Stop.store(true, std::memory_order_release);
  for (auto &N : Nodes) {
    std::lock_guard<std::mutex> G(N->Mu);
    N->Cv.notify_all();
  }
  for (auto &N : Nodes)
    if (N->Worker.joinable())
      N->Worker.join();
  // Discard queued work without running it, releasing whatever the
  // closures captured.
  for (auto &N : Nodes) {
    N->Queue.clear();
    N->Timers.clear();
    N->WakeTimers.clear();
    N->OnRecv = nullptr;
  }
  Joined = true;
}

bool ShmTransport::idle() const {
  // A worker sets Running under Mu as it pops a task, so no task slips
  // between the two reads of one node.
  for (const auto &N : Nodes) {
    std::lock_guard<std::mutex> G(N->Mu);
    if (!N->Queue.empty() || N->Running)
      return false;
  }
  return true;
}
