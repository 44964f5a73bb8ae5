//===- tests/TransportConformanceTests.cpp - Backend conformance --------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
// The backend-parameterized conformance suite: every test here runs
// against BOTH Transport backends -- the deterministic discrete-event
// simulator (Fabric) and the shared-memory backend where each node is a
// real OS thread (ShmTransport). The suite has two layers:
//
//  - transport-level: the verb contract (write visibility and FIFO
//    ordering, snapshot reads, permissions, crash semantics, two-sided
//    sends, diagnostic counters) and the single-writer ring protocol
//    (canary validation, spanning records, wrap padding) behave
//    identically on both backends;
//
//  - cluster-level: the lockstep-equivalence corpus from
//    CrossValidationTests, re-run over each backend. For
//    observation-independent conflict-free types the final state is a
//    pure function of the call multiset, so even the *concurrent* shm
//    runtime must agree bit-for-bit with the executable semantics;
//    conflicting and observation-dependent types must converge per world
//    and keep their integrity invariant. The cluster's per-origin
//    outstanding counts and their sums are pinned on both backends too.
//
// Anything inherently tied to simulated time (latency ratios, CPU-lane
// timing, fault schedules, trace replay) stays in RdmaTests /
// FaultInjectorTests; this file pins the sim-only policy for fault
// injection explicitly. See docs/transport.md.
//===----------------------------------------------------------------------===//

#include "hamband/core/TypeRegistry.h"
#include "hamband/rdma/Fabric.h"
#include "hamband/rdma/ShmTransport.h"
#include "hamband/runtime/HambandCluster.h"
#include "hamband/runtime/RingBuffer.h"
#include "hamband/semantics/RdmaSemantics.h"
#include "hamband/sim/FaultInjector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <thread>
#include <tuple>

using namespace hamband;
using namespace hamband::rdma;
using namespace hamband::runtime;

namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<std::uint8_t> L) {
  return std::vector<std::uint8_t>(L);
}

std::string sanitized(std::string Name) {
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return Name;
}

//===----------------------------------------------------------------------===//
// Transport-level conformance
//===----------------------------------------------------------------------===//

class TransportConformance
    : public ::testing::TestWithParam<TransportKind> {
protected:
  void SetUp() override {
    if (GetParam() == TransportKind::Sim) {
      Sim = std::make_unique<sim::Simulator>();
      T = std::make_unique<Fabric>(*Sim, 3, NetworkModel(), 1u << 20);
    } else {
      T = std::make_unique<ShmTransport>(3, NetworkModel(), 1u << 20);
    }
  }

  void TearDown() override {
    if (T)
      T->shutdown();
  }

  /// Runs the backend until it is quiescent. On sim this drains the event
  /// queue; on shm it polls idle() under pauseWorld(), which waits out
  /// each node's running task under that node's mutex and so also
  /// publishes the tasks' effects to this thread.
  void settle() {
    if (Sim) {
      Sim->run();
      return;
    }
    for (int Spin = 0; Spin < 200000; ++Spin) {
      T->pauseWorld();
      bool Quiet = T->idle();
      T->resumeWorld();
      if (Quiet)
        return;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    FAIL() << "shm transport did not quiesce";
  }

  std::unique_ptr<sim::Simulator> Sim; // Sim backend only.
  std::unique_ptr<Transport> T;
};

TEST_P(TransportConformance, KindAndDeterminismMatchBackend) {
  EXPECT_EQ(T->kind(), GetParam());
  EXPECT_EQ(T->deterministic(), GetParam() == TransportKind::Sim);
  EXPECT_EQ(T->simulatorOrNull() != nullptr,
            GetParam() == TransportKind::Sim);
  EXPECT_EQ(T->numNodes(), 3u);
}

TEST_P(TransportConformance, WriteCompletionFires) {
  std::atomic<bool> Completed{false};
  T->postWrite(0, 1, 0, bytes({1}), UnprotectedRegion, [&](WcStatus St) {
    EXPECT_EQ(St, WcStatus::Success);
    Completed = true;
  });
  settle();
  EXPECT_TRUE(Completed);
  EXPECT_EQ(T->memory(1).readU8(0), 1);
}

TEST_P(TransportConformance, WritesSameChannelDeliverInOrder) {
  // Post a large write then a tiny one to the same address; per-channel
  // FIFO means the second cannot overtake the first.
  std::vector<std::uint8_t> Big(4096, 0xAA);
  T->postWrite(0, 1, 0, Big);
  T->postWrite(0, 1, 0, bytes({0xBB}));
  settle();
  EXPECT_EQ(T->memory(1).readU8(0), 0xBB);
  EXPECT_EQ(T->memory(1).readU8(1), 0xAA);
}

TEST_P(TransportConformance, ReadReturnsRemoteSnapshot) {
  T->memory(2).writeU64(64, 4242);
  std::atomic<std::uint64_t> Got{0};
  T->postRead(0, 2, 64, 8, [&](WcStatus St, std::vector<std::uint8_t> D) {
    EXPECT_EQ(St, WcStatus::Success);
    ASSERT_EQ(D.size(), 8u);
    std::uint64_t V = 0;
    std::memcpy(&V, D.data(), 8);
    Got = V;
  });
  settle();
  EXPECT_EQ(Got, 4242u);
}

TEST_P(TransportConformance, PermissionDenialRejectsWrite) {
  RegionKey Key = T->createRegionKey();
  T->setWritePermission(1, 0, Key, false);
  std::atomic<WcStatus> Got{WcStatus::Success};
  T->postWrite(0, 1, 300, bytes({5}), Key, [&](WcStatus St) { Got = St; });
  settle();
  EXPECT_EQ(Got, WcStatus::AccessError);
  EXPECT_EQ(T->memory(1).readU8(300), 0); // Nothing written.
}

TEST_P(TransportConformance, PermissionGrantRestoresWrite) {
  RegionKey Key = T->createRegionKey();
  T->setWritePermission(1, 0, Key, false);
  T->setWritePermission(1, 0, Key, true);
  std::atomic<WcStatus> Got{WcStatus::AccessError};
  T->postWrite(0, 1, 300, bytes({5}), Key, [&](WcStatus St) { Got = St; });
  settle();
  EXPECT_EQ(Got, WcStatus::Success);
  EXPECT_EQ(T->memory(1).readU8(300), 5);
}

TEST_P(TransportConformance, PermissionsArePerTargetAndWriter) {
  RegionKey Key = T->createRegionKey();
  T->setWritePermission(1, 0, Key, false);
  EXPECT_FALSE(T->hasWritePermission(1, 0, Key));
  EXPECT_TRUE(T->hasWritePermission(1, 2, Key)); // Other writer fine.
  EXPECT_TRUE(T->hasWritePermission(2, 0, Key)); // Other target fine.
  EXPECT_TRUE(T->hasWritePermission(1, 0, UnprotectedRegion));
}

TEST_P(TransportConformance, EpochFenceRevocationStopsStragglers) {
  // The reconfig fence (docs/reconfig.md): the coordinator revokes the
  // old epoch's data key on every (target, writer) pair while the new
  // epoch's key stays writable. A straggler still posting under the old
  // key must fail with AccessError on BOTH backends -- the fence is what
  // makes "no write can complete in a closed epoch" a transport
  // guarantee rather than a timing assumption.
  RegionKey OldKey = T->createRegionKey();
  RegionKey NewKey = T->createRegionKey();
  for (NodeId Dst = 0; Dst < 3; ++Dst)
    for (NodeId Src = 0; Src < 3; ++Src)
      T->setWritePermission(Dst, Src, OldKey, false);

  std::atomic<WcStatus> Straggler{WcStatus::Success};
  std::atomic<WcStatus> NewEpoch{WcStatus::AccessError};
  T->postWrite(2, 1, 400, bytes({9}), OldKey,
               [&](WcStatus St) { Straggler = St; });
  T->postWrite(2, 1, 408, bytes({7}), NewKey,
               [&](WcStatus St) { NewEpoch = St; });
  settle();
  EXPECT_EQ(Straggler, WcStatus::AccessError);
  EXPECT_EQ(T->memory(1).readU8(400), 0); // The fence held.
  EXPECT_EQ(NewEpoch, WcStatus::Success);
  EXPECT_EQ(T->memory(1).readU8(408), 7);

  // Re-admission (the abort path): re-allowing the old key restores the
  // exact pre-fence behavior.
  for (NodeId Dst = 0; Dst < 3; ++Dst)
    for (NodeId Src = 0; Src < 3; ++Src)
      T->setWritePermission(Dst, Src, OldKey, true);
  std::atomic<WcStatus> Readmit{WcStatus::AccessError};
  T->postWrite(2, 1, 400, bytes({9}), OldKey,
               [&](WcStatus St) { Readmit = St; });
  settle();
  EXPECT_EQ(Readmit, WcStatus::Success);
  EXPECT_EQ(T->memory(1).readU8(400), 9);
}

TEST_P(TransportConformance, TwoSidedSendInvokesReceiver) {
  std::vector<std::uint8_t> Got;
  std::atomic<NodeId> GotSrc{99};
  T->setRecvHandler(1, [&](NodeId Src,
                           const std::vector<std::uint8_t> &Msg) {
    Got = Msg;
    GotSrc = Src;
  });
  T->send(0, 1, bytes({1, 2, 3}));
  settle();
  EXPECT_EQ(GotSrc, 0u);
  EXPECT_EQ(Got, bytes({1, 2, 3}));
}

TEST_P(TransportConformance, CrashDropsCpuButKeepsMemoryAccessible) {
  // Crash first, then post: both backends then agree deterministically
  // that the handler never runs (on shm, posting first would race the
  // dispatch, which is exactly the nondeterminism the sim rules out).
  std::atomic<bool> HandlerRan{false};
  T->setRecvHandler(1, [&](NodeId, const std::vector<std::uint8_t> &) {
    HandlerRan = true;
  });
  T->crash(1);
  EXPECT_FALSE(T->isAlive(1));
  T->send(0, 1, bytes({1}));
  T->postWrite(0, 1, 128, bytes({0x77}));
  settle();
  std::atomic<std::uint8_t> ReadBack{0};
  T->postRead(2, 1, 128, 1, [&](WcStatus, std::vector<std::uint8_t> D) {
    ReadBack = D.at(0);
  });
  settle();
  EXPECT_FALSE(HandlerRan);
  EXPECT_EQ(T->memory(1).readU8(128), 0x77);
  EXPECT_EQ(ReadBack, 0x77);
}

TEST_P(TransportConformance, CrashedNodeCpuJobsDropped) {
  std::atomic<bool> Ran{false};
  T->crash(1);
  T->runOnCpu(1, sim::micros(1), [&] { Ran = true; });
  settle();
  EXPECT_FALSE(Ran);
}

TEST_P(TransportConformance, RunAfterFiresOnBothBackends) {
  std::atomic<bool> Fired{false};
  T->runAfter(1, sim::micros(50), [&] { Fired = true; });
  if (Sim) {
    Sim->run();
  } else {
    for (int Spin = 0; Spin < 50000 && !Fired; ++Spin)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    settle();
  }
  EXPECT_TRUE(Fired);
}

/// Waits up to \p Limit of wall clock for \p Flag (shm backend).
bool waitFor(const std::atomic<bool> &Flag, std::chrono::milliseconds Limit) {
  auto Deadline = std::chrono::steady_clock::now() + Limit;
  while (!Flag && std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  return Flag;
}

/// Long enough that a timer firing on shm within the test's waits was
/// brought forward, never due.
constexpr sim::SimDuration LongTimer = sim::millis(30000);

TEST_P(TransportConformance, WriteWokenTimerFiresOnPeerWrite) {
  // On shm a peer's write brings the timer forward; the simulator times
  // pollers by its cost model, so there the timer waits out its delay.
  std::atomic<bool> Fired{false};
  std::atomic<sim::SimTime> FiredAt{0};
  sim::SimTime ArmedAt = T->now();
  T->runAfterOrWrite(1, LongTimer, [&] {
    FiredAt = T->now();
    Fired = true;
  });
  T->postWrite(0, 1, 64, bytes({1}));
  if (Sim) {
    Sim->run();
    EXPECT_TRUE(Fired);
    EXPECT_EQ(FiredAt, ArmedAt + LongTimer);
  } else {
    EXPECT_TRUE(waitFor(Fired, std::chrono::milliseconds(1000)));
    EXPECT_LT(FiredAt - ArmedAt, sim::millis(1000));
  }
  EXPECT_EQ(T->memory(1).readU8(64), 1);
}

TEST_P(TransportConformance, PlainTimerIgnoresPeerWrites) {
  // Timeouts keep their meaning: only runAfterOrWrite timers are brought
  // forward. The write-woken twin shows the writes did ring.
  std::atomic<bool> PlainFired{false};
  std::atomic<bool> WokenFired{false};
  std::atomic<sim::SimTime> PlainAt{0};
  sim::SimTime ArmedAt = T->now();
  T->runAfter(1, LongTimer, [&] {
    PlainAt = T->now();
    PlainFired = true;
  });
  T->runAfterOrWrite(1, LongTimer, [&] { WokenFired = true; });
  T->postWrite(0, 1, 64, bytes({1}));
  T->postWrite(2, 1, 72, bytes({2}));
  if (Sim) {
    Sim->run();
    EXPECT_TRUE(PlainFired);
    EXPECT_EQ(PlainAt, ArmedAt + LongTimer);
  } else {
    EXPECT_TRUE(waitFor(WokenFired, std::chrono::milliseconds(1000)));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(PlainFired);
  }
}

TEST_P(TransportConformance, DeniedOrLocalWriteDoesNotWake) {
  // A write the permission check rejected landed nothing, and a node's
  // write to its own memory needs no wake-up: neither rings.
  RegionKey Key = T->createRegionKey();
  T->setWritePermission(1, 0, Key, false);
  std::atomic<bool> Fired{false};
  std::atomic<sim::SimTime> FiredAt{0};
  std::atomic<WcStatus> Denied{WcStatus::Success};
  sim::SimTime ArmedAt = T->now();
  T->runAfterOrWrite(1, LongTimer, [&] {
    FiredAt = T->now();
    Fired = true;
  });
  T->postWrite(0, 1, 300, bytes({5}), Key, [&](WcStatus St) { Denied = St; });
  T->postWrite(1, 1, 308, bytes({6}));
  if (Sim) {
    Sim->run();
    EXPECT_EQ(FiredAt, ArmedAt + LongTimer);
  } else {
    settle();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_FALSE(Fired);
    // A permitted peer write still wakes it.
    T->postWrite(2, 1, 316, bytes({7}));
    EXPECT_TRUE(waitFor(Fired, std::chrono::milliseconds(1000)));
  }
  EXPECT_EQ(Denied, WcStatus::AccessError);
  EXPECT_EQ(T->memory(1).readU8(300), 0);
  EXPECT_EQ(T->memory(1).readU8(308), 6);
}

TEST_P(TransportConformance, NowAdvancesMonotonically) {
  sim::SimTime T0 = T->now();
  std::atomic<bool> Fired{false};
  T->runAfter(0, sim::micros(20), [&] { Fired = true; });
  if (Sim) {
    Sim->run();
  } else {
    for (int Spin = 0; Spin < 50000 && !Fired; ++Spin)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_TRUE(Fired);
  EXPECT_GE(T->now(), T0 + sim::micros(20));
}

TEST_P(TransportConformance, DiagnosticCountersAdvance) {
  EXPECT_EQ(T->totalWritesPosted(), 0u);
  T->postWrite(0, 1, 0, bytes({1, 2}));
  T->postRead(0, 1, 0, 2, [](WcStatus, std::vector<std::uint8_t>) {});
  T->send(0, 1, bytes({3}));
  settle();
  EXPECT_EQ(T->totalWritesPosted(), 1u);
  EXPECT_EQ(T->totalReadsPosted(), 1u);
  EXPECT_EQ(T->totalSendsPosted(), 1u);
  EXPECT_EQ(T->totalBytesWritten(), 2u);
}

TEST_P(TransportConformance, CallOnFromOwnContextRunsInline) {
  // A callOn made from inside the target node's own task has run before
  // it returns, on both backends. On shm a callOn from another node or
  // from the test thread is queued to the target's worker; the
  // simulator's single thread is every node's context, so there it runs
  // inline too. Node 2 is held busy on shm so that its queued task cannot
  // slip in before the check.
  std::atomic<bool> Release{Sim != nullptr};
  if (!Sim)
    T->runOnCpu(2, 0, [&] {
      while (!Release)
        std::this_thread::yield();
    });
  std::atomic<bool> SelfInline{false};
  std::atomic<bool> PeerInline{false};
  std::atomic<bool> PeerRan{false};
  std::atomic<bool> Posted{false};
  T->runOnCpu(1, sim::micros(1), [&] {
    bool Ran = false;
    T->callOn(1, [&Ran] { Ran = true; });
    SelfInline = Ran;
    T->callOn(2, [&] { PeerRan = true; });
    PeerInline = PeerRan.load();
    Posted = true;
  });
  if (!Sim) {
    bool Ok = waitFor(Posted, std::chrono::milliseconds(10000));
    Release = true;
    ASSERT_TRUE(Ok);
  }
  settle();
  EXPECT_TRUE(SelfInline);
  EXPECT_TRUE(PeerRan);
  EXPECT_EQ(PeerInline.load(), Sim != nullptr);

  std::atomic<bool> TestThreadRan{false};
  T->pauseWorld(); // Nothing starts on shm until resumeWorld().
  T->callOn(0, [&] { TestThreadRan = true; });
  EXPECT_EQ(TestThreadRan.load(), Sim != nullptr);
  T->resumeWorld();
  settle();
  EXPECT_TRUE(TestThreadRan);
}

TEST_P(TransportConformance, PauseWorldWaitsOutRunningTask) {
  // On shm a task on node 1 spins until a helper thread releases it,
  // about 50 ms into the pause: pauseWorld() must return only after the
  // task ended, and idle() is false while it runs. On both backends a
  // task posted during the pause does not start before resumeWorld().
  if (!Sim) {
    std::atomic<bool> Started{false};
    std::atomic<bool> Release{false};
    std::atomic<bool> Ended{false};
    T->runOnCpu(1, 0, [&] {
      Started = true;
      while (!Release)
        std::this_thread::yield();
      Ended = true;
    });
    bool Ok = waitFor(Started, std::chrono::milliseconds(10000));
    EXPECT_FALSE(T->idle()) << "a running task is work";
    std::thread Releaser([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      Release = true;
    });
    T->pauseWorld();
    EXPECT_TRUE(Ended) << "pauseWorld() returned with a task mid-flight";
    Releaser.join();
    ASSERT_TRUE(Ok);
  } else {
    T->pauseWorld();
  }
  std::atomic<bool> Late{false};
  T->runOnCpu(1, sim::micros(1), [&] { Late = true; });
  if (!Sim)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(Late);
  EXPECT_FALSE(T->idle());
  T->resumeWorld();
  settle();
  EXPECT_TRUE(Late);
  EXPECT_TRUE(T->idle());
}

// The single-writer ring protocol over the raw verbs: spanning records,
// wrap padding and canary validation deliver the same payload sequence on
// both backends. This is the quiescent-point protocol check; the
// genuinely concurrent hammering lives in ShmRingStressTests.cpp.
TEST_P(TransportConformance, RingSpanningRecordsSurviveWrapOnBothBackends) {
  RingGeometry G;
  G.NumCells = 16;
  G.CellSize = 48;
  const MemOffset DataOff = 4096;
  const MemOffset FeedbackOff = 8192;
  RingWriter W(*T, /*Writer=*/0, /*Reader=*/1, DataOff, FeedbackOff, G);
  RingReader R(*T, /*Reader=*/1, /*Writer=*/0, DataOff, FeedbackOff, G);

  // Payload sizes that mix single-cell records with spans of 2..6 cells,
  // repeated across several laps so every wrap inserts padding records.
  const std::size_t Sizes[] = {5,   20,  60,  130, 8,  200,
                               35,  260, 1,   90,  48, 150,
                               240, 12,  180, 70};
  std::uint32_t Delivered = 0;
  for (unsigned Round = 0; Round < 48; ++Round) {
    std::size_t Len = Sizes[Round % (sizeof(Sizes) / sizeof(Sizes[0]))];
    ASSERT_LE(Len, G.maxRecordPayload());
    std::vector<std::uint8_t> Payload(Len);
    for (std::size_t I = 0; I < Len; ++I)
      Payload[I] = static_cast<std::uint8_t>((Round * 131 + I) & 0xFF);
    ASSERT_TRUE(W.appendRecord(Payload)) << "round " << Round;
    settle();
    std::vector<std::uint8_t> Got;
    ASSERT_TRUE(R.peek(Got)) << "round " << Round;
    EXPECT_EQ(Got, Payload) << "round " << Round;
    R.consume();
    settle(); // Head feedback may post to the writer.
    ++Delivered;
    EXPECT_FALSE(R.peek(Got)) << "phantom record after round " << Round;
  }
  EXPECT_EQ(Delivered, 48u);
}

/// Fills a ring of shape \p G from node 0 to node 1, then posts \p Posted
/// more records through RingWriter::appendOrQueue, in bursts of three a
/// few microseconds apart, while a polling reader drains the ring. The
/// reader starts after the first burst, which therefore queues behind a
/// full ring. The retry interval is long against the posting pace, so
/// later bursts arrive while older records wait for their retry and the
/// ring already has room again. Every record must arrive in post order,
/// each posted record's completion must fire exactly once, and the
/// writer's queue must end empty. Record sizes cycle through \p Sizes.
void expectQueuedAppendsStayFifo(Transport &T, sim::Simulator *Sim,
                                 const std::function<void()> &Settle,
                                 RingGeometry G,
                                 const std::vector<std::size_t> &Sizes,
                                 unsigned Posted) {
  const MemOffset DataOff = 4096;
  const MemOffset FeedbackOff = 64;
  RingWriter W(T, /*Writer=*/0, /*Reader=*/1, DataOff, FeedbackOff, G);
  RingReader R(T, /*Reader=*/1, /*Writer=*/0, DataOff, FeedbackOff, G);
  auto Record = [&](unsigned I) {
    std::vector<std::uint8_t> P(Sizes[I % Sizes.size()]);
    for (std::size_t B = 0; B < P.size(); ++B)
      P[B] = static_cast<std::uint8_t>((I * 37 + B) & 0xFF);
    std::memcpy(P.data(), &I, sizeof(I));
    return P;
  };

  // Touched only by node 0 (writer side) or node 1 (reader side) until
  // the run settles.
  std::vector<std::vector<std::uint8_t>> Expected;
  std::vector<std::atomic<unsigned>> Completions(Posted);
  std::atomic<std::size_t> Total{0}; // Known once the ring is full.
  std::size_t MaxQueued = 0;
  unsigned Sent = 0;
  std::function<void()> Produce = [&] {
    for (unsigned K = 0; K < 3 && Sent < Posted; ++K) {
      unsigned I = Sent++;
      Expected.push_back(Record(static_cast<unsigned>(Expected.size())));
      W.appendOrQueue(
          Expected.back(),
          [&Completions, I](WcStatus) { Completions[I].fetch_add(1); },
          sim::micros(40));
      MaxQueued = std::max(MaxQueued, W.queued());
    }
    if (Sent < Posted)
      T.runAfter(0, sim::micros(3), [&Produce] { Produce(); });
  };

  std::vector<std::vector<std::uint8_t>> Got;
  std::atomic<bool> ReaderDone{false};
  std::function<void()> Poll = [&] {
    std::vector<std::uint8_t> Buf;
    while (R.peek(Buf)) {
      Got.push_back(Buf);
      R.consume();
    }
    if (Total == 0 || Got.size() < Total)
      T.runAfterOrWrite(1, sim::micros(2), [&Poll] { Poll(); });
    else
      ReaderDone = true;
  };
  T.callOn(0, [&] {
    while (W.appendRecord(Record(static_cast<unsigned>(Expected.size()))))
      Expected.push_back(Record(static_cast<unsigned>(Expected.size())));
    Total = Expected.size() + Posted;
    Produce();
    T.callOn(1, [&Poll] { Poll(); });
  });
  if (Sim) {
    Sim->run();
  } else {
    EXPECT_TRUE(waitFor(ReaderDone, std::chrono::milliseconds(20000)));
    Settle();
  }
  // A drained writer may still hold one armed retry timer; stop the
  // workers before the ring ends go out of scope.
  T.shutdown();
  ASSERT_TRUE(ReaderDone);
  EXPECT_GE(Expected.size(), Posted + 2u) << "the ring never filled";
  EXPECT_GE(MaxQueued, 2u) << "no record ever queued behind another";
  EXPECT_EQ(Got, Expected);
  for (unsigned I = 0; I < Posted; ++I)
    EXPECT_EQ(Completions[I].load(), 1u) << "record " << I;
  EXPECT_EQ(W.queued(), 0u);
}

// RingWriter::appendOrQueue on a full ring stalls the stream without
// reordering it, with an F-ring's shape (records spanning up to five
// cells, so wraps insert padding) ...
TEST_P(TransportConformance, QueuedFreeRingAppendsStayFifoWhenFull) {
  RingGeometry G;
  G.NumCells = 16;
  G.CellSize = 48;
  expectQueuedAppendsStayFifo(*T, Sim.get(), [this] { settle(); }, G,
                              {5, 60, 130, 20, 200}, 24);
}

// ... and with a mailbox's (one small record per cell).
TEST_P(TransportConformance, QueuedMailboxAppendsStayFifoWhenFull) {
  RingGeometry G;
  G.NumCells = 8;
  G.CellSize = 64;
  expectQueuedAppendsStayFifo(*T, Sim.get(), [this] { settle(); }, G,
                              {30, 12, 45}, 20);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, TransportConformance,
    ::testing::Values(TransportKind::Sim, TransportKind::Shm),
    [](const ::testing::TestParamInfo<TransportKind> &Info) {
      return std::string(transportKindName(Info.param));
    });

//===----------------------------------------------------------------------===//
// Cluster-level conformance: the lockstep-equivalence corpus per backend
//===----------------------------------------------------------------------===//

struct IssuedCall {
  ProcessId Origin;
  Call TheCall;
};

std::vector<IssuedCall> makeCallSequence(const ObjectType &T,
                                         unsigned NumNodes, unsigned Count,
                                         std::uint64_t Seed) {
  const CoordinationSpec &Spec = T.coordination();
  sim::Rng R(Seed);
  std::vector<MethodId> Updates = Spec.updateMethods();
  std::vector<IssuedCall> Out;
  for (unsigned I = 0; I < Count; ++I) {
    MethodId M = R.pick(Updates);
    ProcessId P;
    if (Spec.category(M) == MethodCategory::Conflicting)
      P = *Spec.syncGroup(M) % NumNodes;
    else
      P = static_cast<ProcessId>(R.index(NumNodes));
    Out.push_back({P, T.randomClientCall(M, P, 1000 + I, R)});
  }
  return Out;
}

HambandConfig batchedConfig() {
  HambandConfig Cfg;
  Cfg.Batch.MaxCalls = 6;
  return Cfg;
}

/// One cluster deployment on the parameterized backend, with a drive
/// loop appropriate to it: event slices on sim, sleep-and-inspect on shm.
struct ClusterWorld {
  ClusterWorld(TransportKind Kind, unsigned Nodes, const ObjectType &T,
               HambandConfig Cfg)
      : Kind(Kind), C(Kind, Nodes, T, NetworkModel(), std::move(Cfg)) {
    C.start();
  }

  sim::Simulator *sim() { return C.transport().simulatorOrNull(); }

  /// Lets the deployment make a little progress between submissions (the
  /// "realistic pacing" of the sim corpus; shm nodes progress on their
  /// own threads, so this is a no-op there).
  void pace() {
    if (sim::Simulator *S = sim())
      S->run(S->now() + sim::micros(3));
  }

  /// Drives until \p Done reaches \p Expect and replication finishes.
  /// Returns false on timeout. After a successful shm drain the node
  /// threads are STOPPED, so callers can compare node state race-free;
  /// on sim there are no threads to stop.
  bool drain(const std::atomic<unsigned> &Done, unsigned Expect) {
    if (sim::Simulator *S = sim()) {
      sim::SimTime Cap = S->now() + sim::millis(500);
      while (S->now() < Cap &&
             !(Done.load() == Expect && C.fullyReplicated()))
        S->run(S->now() + sim::micros(20));
      return Done.load() == Expect && C.fullyReplicated();
    }
    // Wall-clock cap sized for a 1-core container under TSan.
    auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    bool Ok = false;
    while (std::chrono::steady_clock::now() < Deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (Done.load() == Expect && C.fullyReplicatedQuiesced()) {
        Ok = true;
        break;
      }
    }
    C.stopTransport();
    return Ok;
  }

  TransportKind Kind;
  HambandCluster C;
};

using ClusterParam = std::tuple<TransportKind, std::string>;

std::string clusterParamName(
    const ::testing::TestParamInfo<ClusterParam> &Info) {
  return std::string(transportKindName(std::get<0>(Info.param))) + "_" +
         sanitized(std::get<1>(Info.param));
}

/// Exact-match corpus: for observation-independent conflict-free types
/// the final state is a pure function of the call multiset, so EVERY
/// backend -- including the concurrent one -- must land bit-for-bit on
/// the semantics world's state. (See CrossValidationTests.cpp for why
/// observation-dependent types are excluded.)
void conformConflictFree(TransportKind Kind, const std::string &Name,
                         const HambandConfig &Cfg, unsigned BurstSize) {
  auto T = makeType(Name);
  ASSERT_EQ(T->coordination().numSyncGroups(), 0u);
  const unsigned Nodes = 3;
  std::vector<IssuedCall> Calls = makeCallSequence(*T, Nodes, 40, 99);

  // World 1: the executable concrete semantics.
  semantics::RdmaConfiguration K(*T, Nodes);
  for (const IssuedCall &IC : Calls) {
    Call Prepared = K.prepareAt(IC.Origin, IC.TheCall);
    ASSERT_TRUE(K.tryUpdate(IC.Origin, Prepared)) << Prepared.str();
  }
  K.drain();
  ASSERT_TRUE(K.quiescent());
  ASSERT_TRUE(K.checkConvergence());

  // World 2: the full runtime over the parameterized backend.
  ClusterWorld W(Kind, Nodes, *T, Cfg);
  std::atomic<unsigned> Done{0};
  std::atomic<unsigned> Failed{0};
  for (std::size_t I = 0; I < Calls.size(); ++I) {
    W.C.submit(Calls[I].Origin, Calls[I].TheCall,
               [&Done, &Failed](bool Ok, Value) {
                 if (!Ok)
                   ++Failed;
                 ++Done;
               });
    if ((I + 1) % BurstSize == 0)
      W.pace();
  }
  ASSERT_TRUE(W.drain(Done, static_cast<unsigned>(Calls.size())))
      << Name << ": cluster did not finish (" << Done.load() << "/"
      << Calls.size() << " done)";
  EXPECT_EQ(Failed.load(), 0u) << Name;

  // The two worlds agree replica by replica.
  for (ProcessId P = 0; P < Nodes; ++P) {
    StatePtr FromSemantics = K.visibleState(P);
    EXPECT_TRUE(FromSemantics->equals(W.C.node(P).visibleState()))
        << Name << " node " << P << ":\n  semantics: "
        << FromSemantics->str()
        << "\n  runtime:   " << W.C.node(P).visibleState().str();
    for (ProcessId From = 0; From < Nodes; ++From)
      for (MethodId U = 0; U < T->numMethods(); ++U)
        EXPECT_EQ(K.applied(P, From, U), W.C.node(P).applied(From, U))
            << Name;
  }
}

/// Conflicting / observation-dependent corpus: each world converges
/// internally and keeps the type's integrity invariant.
void conformConflicting(TransportKind Kind, const std::string &Name,
                        const HambandConfig &Cfg, unsigned BurstSize) {
  auto T = makeType(Name);
  const unsigned Nodes = 3;
  std::vector<IssuedCall> Calls = makeCallSequence(*T, Nodes, 30, 7);

  ClusterWorld W(Kind, Nodes, *T, Cfg);
  std::atomic<unsigned> Done{0};
  for (std::size_t I = 0; I < Calls.size(); ++I) {
    W.C.submit(Calls[I].Origin, Calls[I].TheCall,
               [&Done](bool, Value) { ++Done; });
    if ((I + 1) % BurstSize == 0)
      W.pace();
  }
  ASSERT_TRUE(W.drain(Done, static_cast<unsigned>(Calls.size())))
      << Name << ": cluster did not finish (" << Done.load() << "/"
      << Calls.size() << " done)";
  EXPECT_TRUE(W.C.converged()) << Name;
  EXPECT_TRUE(W.C.appliedTablesEqual()) << Name;
  for (ProcessId P = 0; P < Nodes; ++P)
    EXPECT_TRUE(T->invariant(W.C.node(P).visibleState()))
        << Name << " node " << P;
}

class ConflictFreeClusterConformance
    : public ::testing::TestWithParam<ClusterParam> {};

TEST_P(ConflictFreeClusterConformance, RuntimeMatchesSemanticsExactly) {
  conformConflictFree(std::get<0>(GetParam()), std::get<1>(GetParam()),
                      HambandConfig{}, 1);
}

TEST_P(ConflictFreeClusterConformance,
       BatchedRuntimeMatchesSemanticsExactly) {
  conformConflictFree(std::get<0>(GetParam()), std::get<1>(GetParam()),
                      batchedConfig(), 4);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ConflictFreeClusterConformance,
    ::testing::Combine(
        ::testing::Values(TransportKind::Sim, TransportKind::Shm),
        ::testing::Values("counter", "pn-counter", "gset", "gset-buffered",
                          "two-phase-set", "lww-register")),
    clusterParamName);

class ConflictingClusterConformance
    : public ::testing::TestWithParam<ClusterParam> {};

TEST_P(ConflictingClusterConformance, WorldConvergesWithInvariantIntact) {
  conformConflicting(std::get<0>(GetParam()), std::get<1>(GetParam()),
                     HambandConfig{}, 1);
}

TEST_P(ConflictingClusterConformance,
       BatchedWorldConvergesWithFlushOnConf) {
  conformConflicting(std::get<0>(GetParam()), std::get<1>(GetParam()),
                     batchedConfig(), 4);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ConflictingClusterConformance,
    ::testing::Combine(
        ::testing::Values(TransportKind::Sim, TransportKind::Shm),
        ::testing::Values("bank-account", "movie", "auction", "courseware",
                          "project-management", "orset", "shopping-cart")),
    clusterParamName);

//===----------------------------------------------------------------------===//
// Cluster outstanding counters
//===----------------------------------------------------------------------===//

/// Calls at every origin in turn, alternating queries and updates.
std::vector<IssuedCall> mixedCalls(const ObjectType &T, unsigned NumNodes,
                                   unsigned Count) {
  const CoordinationSpec &Spec = T.coordination();
  std::vector<MethodId> Queries;
  for (MethodId M = 0; M < T.numMethods(); ++M)
    if (Spec.category(M) == MethodCategory::Query)
      Queries.push_back(M);
  std::vector<MethodId> Updates = Spec.updateMethods();
  sim::Rng R(17);
  std::vector<IssuedCall> Out;
  for (unsigned I = 0; I < Count; ++I) {
    ProcessId P = I % NumNodes;
    MethodId M = I % 2 ? R.pick(Updates) : R.pick(Queries);
    Out.push_back({P, T.randomClientCall(M, P, 5000 + I, R)});
  }
  return Out;
}

class ClusterCounterConformance
    : public ::testing::TestWithParam<TransportKind> {};

TEST_P(ClusterCounterConformance, PerOriginCountsSumAndSettleToZero) {
  // Submitted with the world paused, no call can complete before the
  // counts are read: outstanding() is the sum of the per-origin counts,
  // and updatesOutstanding() counts the updates only.
  auto Ty = makeType("counter");
  const unsigned Nodes = 3;
  ClusterWorld W(GetParam(), Nodes, *Ty, HambandConfig{});
  std::vector<IssuedCall> Calls = mixedCalls(*Ty, Nodes, 31);
  std::vector<std::uint64_t> PerOrigin(Nodes, 0);
  std::uint64_t Updates = 0;
  std::atomic<unsigned> Done{0};
  W.C.withPausedWorld([&] {
    for (const IssuedCall &IC : Calls) {
      ++PerOrigin[IC.Origin];
      Updates += Ty->coordination().category(IC.TheCall.Method) !=
                 MethodCategory::Query;
      W.C.submit(IC.Origin, IC.TheCall, [&Done](bool, Value) { ++Done; });
    }
    std::uint64_t Sum = 0;
    for (ProcessId P = 0; P < Nodes; ++P) {
      EXPECT_EQ(W.C.outstandingAt(P), PerOrigin[P]) << "origin " << P;
      Sum += W.C.outstandingAt(P);
    }
    EXPECT_EQ(W.C.outstanding(), Sum);
    EXPECT_EQ(W.C.outstanding(), Calls.size());
    EXPECT_EQ(W.C.updatesOutstanding(), Updates);
    EXPECT_EQ(W.C.liveUpdatesOutstanding(), Updates);
  });
  ASSERT_GT(Updates, 0u);
  ASSERT_LT(Updates, Calls.size());
  ASSERT_TRUE(W.drain(Done, static_cast<unsigned>(Calls.size())));
  EXPECT_EQ(W.C.outstanding(), 0u);
  EXPECT_EQ(W.C.updatesOutstanding(), 0u);
  EXPECT_EQ(W.C.liveUpdatesOutstanding(), 0u);
  for (ProcessId P = 0; P < Nodes; ++P)
    EXPECT_EQ(W.C.outstandingAt(P), 0u) << "origin " << P;
}

TEST_P(ClusterCounterConformance, LiveUpdatesOutstandingDropsCrashedOrigin) {
  // Node 2 crashes with its calls still queued: they never complete, so
  // they stay in outstanding() and updatesOutstanding(), while
  // liveUpdatesOutstanding() drops them at once and settles to 0 as the
  // live origins finish theirs.
  auto Ty = makeType("counter");
  const unsigned Nodes = 3;
  ClusterWorld W(GetParam(), Nodes, *Ty, HambandConfig{});
  std::vector<IssuedCall> Calls = mixedCalls(*Ty, Nodes, 30);
  std::uint64_t LiveCalls = 0, LiveUpdates = 0, LostCalls = 0,
                LostUpdates = 0;
  std::atomic<unsigned> Done{0};
  W.C.withPausedWorld([&] {
    for (const IssuedCall &IC : Calls) {
      bool IsUpdate = Ty->coordination().category(IC.TheCall.Method) !=
                      MethodCategory::Query;
      (IC.Origin == 2 ? LostCalls : LiveCalls) += 1;
      (IC.Origin == 2 ? LostUpdates : LiveUpdates) += IsUpdate;
      W.C.submit(IC.Origin, IC.TheCall, [&Done](bool, Value) { ++Done; });
    }
    W.C.crashNode(2);
    EXPECT_EQ(W.C.updatesOutstanding(), LiveUpdates + LostUpdates);
    EXPECT_EQ(W.C.liveUpdatesOutstanding(), LiveUpdates);
  });
  ASSERT_GT(LostUpdates, 0u);

  auto Settled = [&] {
    return Done.load() == LiveCalls && W.C.fullyReplicatedLive();
  };
  bool Ok = false;
  if (sim::Simulator *S = W.sim()) {
    sim::SimTime Cap = S->now() + sim::millis(500);
    while (S->now() < Cap && !(Ok = Settled()))
      S->run(S->now() + sim::micros(20));
  } else {
    auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!Ok && std::chrono::steady_clock::now() < Deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      W.C.withPausedWorld([&] { Ok = Settled(); });
    }
    W.C.stopTransport();
  }
  ASSERT_TRUE(Ok) << Done.load() << "/" << LiveCalls << " live calls done";
  EXPECT_EQ(W.C.liveUpdatesOutstanding(), 0u);
  EXPECT_EQ(W.C.updatesOutstanding(), LostUpdates);
  EXPECT_EQ(W.C.outstandingAt(2), LostCalls);
  EXPECT_EQ(W.C.outstanding(), LostCalls);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ClusterCounterConformance,
    ::testing::Values(TransportKind::Sim, TransportKind::Shm),
    [](const ::testing::TestParamInfo<TransportKind> &Info) {
      return std::string(transportKindName(Info.param));
    });

//===----------------------------------------------------------------------===//
// Sim-only feature policy
//===----------------------------------------------------------------------===//

// Fault injection (and with it fuzzing and trace replay) is defined in
// simulated time; a cluster on the concurrent backend must refuse the
// wiring rather than silently record an unreplayable trace.
TEST(TransportPolicy, FaultInjectionIsSimOnly) {
  auto T = makeType("counter");
  sim::Simulator PlanSim;
  sim::FaultPlan Plan =
      sim::FaultPlan::generate(1, sim::FaultSpec{}, 3);

  HambandCluster Shm(TransportKind::Shm, 3, *T);
  sim::FaultInjector RejectedFI(PlanSim, Plan);
  EXPECT_FALSE(Shm.attachFaultInjector(RejectedFI));
  Shm.stopTransport();

  sim::Simulator Sim;
  HambandCluster SimCluster(Sim, 3, *T);
  sim::FaultInjector AcceptedFI(Sim, Plan);
  EXPECT_TRUE(SimCluster.attachFaultInjector(AcceptedFI));
}

} // namespace
