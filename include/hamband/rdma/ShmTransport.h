//===- hamband/rdma/ShmTransport.h - Shared-memory transport ---*- C++ -*-===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrent Transport backend: every node is an OS thread with a
/// concurrent-mode MemoryRegion, and one-sided verbs are genuine shared-
/// memory accesses performed inline by the posting thread. There is no
/// simulated latency and no determinism -- this backend exists so the
/// bench figures can measure wall-clock operations per second over the
/// exact protocol code (rings, canaries, permission checks) the simulator
/// validates. See docs/transport.md for the memory-ordering argument and
/// the sim/shm feature matrix.
///
/// Execution model per node: one worker thread owning a FIFO task queue
/// and two timer heaps, all vector-backed so a steady stream of tasks and
/// timers allocates nothing. runOnCpu/callOn/two-sided delivery/
/// completions are tasks (dropped once the node crashes); a verb
/// completion is queued as the CompletionFn itself plus its status, never
/// wrapped in a second closure. Timer deadlines fire even on a
/// crashed node, matching raw simulator timers. A callOn made from the
/// target node's own worker runs inline, as on the simulator. Lane
/// numbers and CPU costs are accepted and ignored (chargeCpu is a no-op):
/// a node's three lanes collapse onto its single thread, which
/// over-serializes relative to the simulator but never reorders, so
/// protocol behavior is preserved.
///
/// The per-task path touches only the node's own state: its mutex and
/// queue, and its own cache line of verb totals. pauseWorld() visits each
/// node under that node's mutex, marks it paused (its worker then starts
/// no task) and waits until the task it is running, if any, has ended;
/// taking each node's mutex orders everything the node's tasks did before
/// the caller's inspection, and resumeWorld() orders the caller's writes
/// before the next task.
///
/// Write-woken timers (runAfterOrWrite) sit in their own heap. Every node
/// has a doorbell that postWrite rings after a peer's permitted write has
/// landed; the worker, between tasks, moves all write-woken timers into
/// the task queue when it finds the bell rung. The worker sleeps on its
/// condition variable only when it has nothing to run, and producers
/// notify only a parked worker. A doorbell never takes the node's mutex
/// unless the worker is parked; the handshake (bell store, then a
/// seq_cst read of Parked; Parked set under the mutex, then a re-read of
/// the bell before waiting) guarantees that a parked worker is woken.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RDMA_SHMTRANSPORT_H
#define HAMBAND_RDMA_SHMTRANSPORT_H

#include "hamband/rdma/Transport.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace hamband {
namespace rdma {

/// Shared-memory concurrent transport: one OS thread per node.
class ShmTransport : public Transport {
public:
  ShmTransport(unsigned NumNodes, NetworkModel Model = NetworkModel(),
               std::size_t MemBytesPerNode = 64u << 20);
  ~ShmTransport() override;

  TransportKind kind() const override { return TransportKind::Shm; }

  unsigned numNodes() const override {
    return static_cast<unsigned>(Nodes.size());
  }
  const NetworkModel &model() const override { return Model; }

  /// Wall-clock nanoseconds since construction (steady clock).
  sim::SimTime now() const override;

  MemoryRegion &memory(NodeId Node) override;
  const MemoryRegion &memory(NodeId Node) const override;

  /// Copies \p Data into the destination region inline, before it
  /// returns; the backend keeps no reference to the buffer.
  void postWrite(NodeId Src, NodeId Dst, MemOffset DstOff, const Bytes &Data,
                 RegionKey Key = UnprotectedRegion,
                 CompletionFn OnComplete = nullptr,
                 unsigned Lane = LaneClient) override;

  void postRead(NodeId Src, NodeId Dst, MemOffset DstOff, std::size_t Len,
                ReadCompletionFn OnComplete,
                unsigned Lane = LaneClient) override;

  void send(NodeId Src, NodeId Dst, const Bytes &Msg,
            CompletionFn OnComplete = nullptr,
            unsigned Lane = LaneClient) override;

  void setRecvHandler(NodeId Node, RecvHandler Handler) override;

  void runOnCpu(NodeId Node, sim::SimDuration Cost, TaskFn Fn,
                unsigned Lane = LaneClient) override;

  /// Ignores costs, like runOnCpu: nothing to do.
  void chargeCpu(NodeId, sim::SimDuration, unsigned = LaneClient) override {}

  void runAfter(NodeId Node, sim::SimDuration Delay, TaskFn Fn) override;

  void runAfterOrWrite(NodeId Node, sim::SimDuration Delay,
                       TaskFn Fn) override;

  /// Inline (if \p Node is alive) when called from \p Node's own worker;
  /// enqueued otherwise.
  void callOn(NodeId Node, TaskFn Fn) override;

  RegionKey createRegionKey() override;
  void setWritePermission(NodeId Target, NodeId Writer, RegionKey Key,
                          bool Allowed) override;
  bool hasWritePermission(NodeId Target, NodeId Writer,
                          RegionKey Key) const override;

  void crash(NodeId Node) override;
  bool isAlive(NodeId Node) const override;

  /// Fault hooks are simulated-time artifacts; this backend rejects them.
  void setFaultHook(FabricFaultHook *H) override;
  FabricFaultHook *faultHook() const override { return nullptr; }

  /// Sums of the per-source-node totals.
  std::uint64_t totalWritesPosted() const override {
    return sumPosted(&VerbTotals::Writes);
  }
  std::uint64_t totalReadsPosted() const override {
    return sumPosted(&VerbTotals::Reads);
  }
  std::uint64_t totalSendsPosted() const override {
    return sumPosted(&VerbTotals::Sends);
  }
  std::uint64_t totalBytesWritten() const override {
    return sumPosted(&VerbTotals::Bytes);
  }

  void setObs(obs::Registry &R) override;

  /// Marks every node paused and waits out each node's running task.
  /// Must not be called from a node's worker.
  void pauseWorld() override;
  void resumeWorld() override;
  void shutdown() override;

  /// Reads each node's queue and running flag under its own mutex.
  bool idle() const override;

private:
  /// One queued unit of node work: a closure, or a verb completion with
  /// its status.
  struct Task {
    TaskFn Fn;
    CompletionFn Done;
    WcStatus Status = WcStatus::Success;
    /// Dropped unexecuted once the node crashed (runOnCpu, deliveries,
    /// completions). Timer tasks are exempt, like raw simulator events.
    bool NeedsAlive = true;

    void run() {
      if (Fn)
        Fn();
      else
        Done(Status);
    }
  };

  /// FIFO of tasks in a vector ring that grows by doubling and never
  /// shrinks.
  class TaskQueue {
  public:
    bool empty() const { return Count == 0; }
    void push(Task T);
    Task pop();
    void clear();

  private:
    std::vector<Task> Ring;
    std::size_t Head = 0;
    std::size_t Count = 0;
  };

  /// A timer: due at Deadline; Seq keeps equal deadlines in arming order.
  struct Timer {
    std::uint64_t Deadline = 0;
    std::uint64_t Seq = 0;
    TaskFn Fn;
  };

  /// Min-heap of timers keyed by (Deadline, Seq).
  class TimerHeap {
  public:
    bool empty() const { return Heap.empty(); }
    std::uint64_t nextDeadline() const { return Heap.front().Deadline; }
    void push(std::uint64_t Deadline, TaskFn Fn);
    /// Moves every timer due by \p Until to the back of \p Queue, in
    /// (deadline, arming) order.
    void promoteDue(std::uint64_t Until, TaskQueue &Queue);
    void clear() { Heap.clear(); }

  private:
    std::vector<Timer> Heap;
    std::uint64_t NextSeq = 0;
  };

  /// Verbs posted by one source node, alone on its cache line: only the
  /// threads posting from that node touch it.
  struct alignas(64) VerbTotals {
    std::atomic<std::uint64_t> Writes{0};
    std::atomic<std::uint64_t> Reads{0};
    std::atomic<std::uint64_t> Sends{0};
    std::atomic<std::uint64_t> Bytes{0};
  };

  struct ShmNode {
    explicit ShmNode(std::size_t MemBytes)
        : Mem(MemBytes, /*Concurrent=*/true) {}
    MemoryRegion Mem;
    std::mutex Mu;
    std::condition_variable Cv;
    TaskQueue Queue;
    TimerHeap Timers;
    /// runAfterOrWrite timers: due at their deadline or at the next
    /// doorbell, whichever comes first.
    TimerHeap WakeTimers;
    /// Shared so a delivery can call it outside Mu; guarded by Mu.
    std::shared_ptr<RecvHandler> OnRecv;
    /// Pause handshake, all guarded by Mu. The worker starts no task
    /// while Paused; Running is set while it executes one; a pauser
    /// waiting for the running task to end sets PauserWaiting and sleeps
    /// on PauseCv, which the worker notifies only then.
    bool Paused = false;
    bool Running = false;
    bool PauserWaiting = false;
    std::condition_variable PauseCv;
    /// Rung (set) by postWrite after a peer's write landed here; cleared
    /// by the worker when it acts on it.
    std::atomic<bool> Bell{false};
    /// True while the worker waits on Cv. Written under Mu.
    std::atomic<bool> Parked{false};
    std::atomic<bool> Alive{true};
    std::thread Worker;
    VerbTotals Posted;
  };

  void workerLoop(ShmNode &N);
  void enqueue(NodeId Node, Task T);
  void addTimer(ShmNode &N, TimerHeap &Heap, sim::SimDuration Delay,
                TaskFn Fn);
  void ringDoorbell(ShmNode &N);
  std::uint64_t
  sumPosted(std::atomic<std::uint64_t> VerbTotals::*Field) const;

  /// The node whose worker is the calling thread, if any.
  static thread_local const ShmNode *CurrentNode;

  NetworkModel Model;
  std::chrono::steady_clock::time_point Epoch;
  std::vector<std::unique_ptr<ShmNode>> Nodes;

  /// Held from pauseWorld() to resumeWorld(): one pauser at a time.
  std::mutex PauserMu;

  std::atomic<bool> Stop{false};
  bool Joined = false; // main-thread only

  mutable std::mutex PermMu;
  std::map<std::uint64_t, bool> Perm; // (target,writer,key) packed
  RegionKey NextRegionKey = 1;        // guarded by PermMu

  obs::Counter *CtrWrite = nullptr;
  obs::Counter *CtrRead = nullptr;
  obs::Counter *CtrSend = nullptr;
  obs::Counter *CtrBytes = nullptr;
};

} // namespace rdma
} // namespace hamband

#endif // HAMBAND_RDMA_SHMTRANSPORT_H
