//===- tests/SupportTests.cpp - UniqueFunction and Bytes ----------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
// The runtime's two hot-path types: the move-only UniqueFunction (inline
// storage, heap fallback, exactly-once destruction of captures) and the
// shared immutable Bytes buffer, plus the verb-level contracts built on
// them on both transports: a dropped task on a crashed node destroys its
// capture once, a retry re-arms itself without shared ownership, and one
// buffer posted to several peers lands byte-exact (copied before
// postWrite returns on shm, shared until delivery on sim).
//===----------------------------------------------------------------------===//

#include "hamband/rdma/Fabric.h"
#include "hamband/rdma/ShmTransport.h"
#include "hamband/support/Bytes.h"
#include "hamband/support/UniqueFunction.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

using namespace hamband;
using namespace hamband::rdma;

namespace {

/// Counts live owning instances of a capture; a moved-from token owns
/// nothing. Destroyed counts owning destructions only.
struct Tracker {
  std::atomic<int> Live{0};
  std::atomic<int> Destroyed{0};
};

class Token {
public:
  explicit Token(Tracker &T) : T(&T) { T.Live.fetch_add(1); }
  Token(Token &&O) noexcept : T(std::exchange(O.T, nullptr)) {}
  Token &operator=(Token &&) = delete;
  Token(const Token &) = delete;
  ~Token() {
    if (T) {
      T->Live.fetch_sub(1);
      T->Destroyed.fetch_add(1);
    }
  }

private:
  Tracker *T;
};

TEST(UniqueFunction, SmallCapturesAreInlineLargeOnesFallBackToTheHeap) {
  std::array<void *, 6> Six{};
  auto Small = [Six]() { return Six.size(); };
  std::array<char, 200> Big{};
  Big[199] = 7;
  auto Large = [Big]() { return static_cast<std::size_t>(Big[199]); };
  using Fn = UniqueFunction<std::size_t()>;
  static_assert(Fn::storedInline<decltype(Small)>());
  static_assert(!Fn::storedInline<decltype(Large)>());
  static_assert(sizeof(Fn) == 64, "one cache line");
  Fn A = Small, B = Large;
  EXPECT_EQ(A(), 6u);
  EXPECT_EQ(B(), 7u);
  Fn C = std::move(B);
  EXPECT_FALSE(B);
  EXPECT_EQ(C(), 7u);
}

TEST(UniqueFunction, HoldsMoveOnlyCaptures) {
  auto P = std::make_unique<int>(41);
  UniqueFunction<int(int)> F = [P = std::move(P)](int D) { return *P + D; };
  EXPECT_EQ(F(1), 42);
  UniqueFunction<int(int)> G = std::move(F);
  EXPECT_FALSE(F);
  EXPECT_EQ(G(2), 43);
}

TEST(UniqueFunction, EmptyFromNullptrAndFromEmptyStdFunction) {
  UniqueFunction<void()> A = nullptr;
  EXPECT_FALSE(A);
  std::function<void()> Empty;
  UniqueFunction<void()> B = Empty;
  EXPECT_FALSE(B);
  void (*NullFn)() = nullptr;
  UniqueFunction<void()> C = NullFn;
  EXPECT_FALSE(C);
}

TEST(UniqueFunction, CaptureDestroyedOnceAfterMoveCallAndReset) {
  for (bool Heap : {false, true}) {
    Tracker T;
    {
      std::array<char, 128> Pad{};
      UniqueFunction<int()> F;
      if (Heap)
        F = [Tok = Token(T), Pad]() { return int(Pad[0]) + 1; };
      else
        F = [Tok = Token(T)]() { return 1; };
      EXPECT_EQ(T.Live.load(), 1);
      UniqueFunction<int()> G = std::move(F);
      EXPECT_EQ(G(), 1);
      EXPECT_EQ(G(), 1); // Callable more than once; owns its capture.
      UniqueFunction<int()> H;
      H = std::move(G);
      EXPECT_EQ(T.Live.load(), 1);
      EXPECT_EQ(T.Destroyed.load(), 0);
      H = nullptr;
      EXPECT_EQ(T.Live.load(), 0);
      EXPECT_EQ(T.Destroyed.load(), 1);
    }
    EXPECT_EQ(T.Destroyed.load(), 1) << (Heap ? "heap" : "inline");
  }
}

TEST(Bytes, SharesOneBufferAndCopiesOutOnlyOnConversion) {
  std::vector<std::uint8_t> V = {1, 2, 3, 4};
  Bytes A = V;
  EXPECT_EQ(A.size(), 4u);
  EXPECT_EQ(A.useCount(), 1u);
  Bytes B = A;
  EXPECT_EQ(A.data(), B.data());
  EXPECT_EQ(A.useCount(), 2u);
  std::vector<std::uint8_t> Back = B;
  EXPECT_EQ(Back, V);
  EXPECT_TRUE(A == Bytes({1, 2, 3, 4}));
  EXPECT_FALSE(A == Bytes({1, 2, 3}));
  B = Bytes();
  EXPECT_EQ(A.useCount(), 1u);
  EXPECT_TRUE(Bytes().empty());
  EXPECT_EQ(Bytes().useCount(), 0u);
}

TEST(Bytes, WriterWritesLittleEndianOnceAndHandsOver) {
  ByteWriter W;
  W.reserve(11);
  W.u8(0xAB);
  W.u16(0x0102);
  W.u32(0x03040506);
  W.zeros(2);
  W.bytes(Bytes({9, 8}));
  EXPECT_EQ(W.size(), 11u);
  Bytes B = W.take();
  EXPECT_EQ(W.size(), 0u);
  EXPECT_TRUE(B == Bytes({0xAB, 0x02, 0x01, 0x06, 0x05, 0x04, 0x03, 0, 0, 9,
                          8}));
  // A writer grows past an undersized reservation.
  ByteWriter G;
  for (unsigned I = 0; I < 1000; ++I)
    G.u32(I);
  Bytes Grown = G.take();
  ASSERT_EQ(Grown.size(), 4000u);
  EXPECT_EQ(Grown[3996], static_cast<std::uint8_t>(999 & 0xFF));
  EXPECT_EQ(Grown[3997], static_cast<std::uint8_t>(999 >> 8));
}

//===----------------------------------------------------------------------===//
// Verb-level contracts on both transports
//===----------------------------------------------------------------------===//

class VerbOwnership : public ::testing::TestWithParam<TransportKind> {
protected:
  void SetUp() override {
    if (GetParam() == TransportKind::Sim) {
      Sim = std::make_unique<sim::Simulator>();
      T = std::make_unique<Fabric>(*Sim, 4, NetworkModel(), 1u << 16);
    } else {
      T = std::make_unique<ShmTransport>(4, NetworkModel(), 1u << 16);
    }
  }
  void TearDown() override { T->shutdown(); }

  /// Drains the simulator, or waits until the shm backend is idle.
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
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    FAIL() << "shm transport did not quiesce";
  }

  std::unique_ptr<sim::Simulator> Sim;
  std::unique_ptr<Transport> T;
};

TEST_P(VerbOwnership, DroppedTaskOnCrashedNodeDestroysItsCaptureOnce) {
  Tracker Queued, Late;
  std::atomic<int> Ran{0};
  // Queued while the node is alive, dropped because it crashed before
  // the task could run (the simulator's guard, the shm dispatch check).
  T->pauseWorld();
  T->runOnCpu(1, 100, [Tok = Token(Queued), &Ran]() { Ran.fetch_add(1); });
  T->crash(1);
  T->resumeWorld();
  // Posted after the crash: dropped at once.
  T->runOnCpu(1, 100, [Tok = Token(Late), &Ran]() { Ran.fetch_add(1); });
  settle();
  T->shutdown();
  EXPECT_EQ(Ran.load(), 0);
  EXPECT_EQ(Queued.Destroyed.load(), 1);
  EXPECT_EQ(Late.Destroyed.load(), 1);
  EXPECT_EQ(Queued.Live.load() + Late.Live.load(), 0);
}

/// A write-woken retry that re-arms itself by moving into the next timer:
/// it owns a move-only capture and needs no shared_ptr to stay alive.
struct SelfRearmingRetry {
  Transport *T;
  NodeId Node;
  int Needed;
  std::atomic<int> *Attempts;
  std::atomic<bool> *Finished;
  Token Tok;

  void operator()() {
    if (Attempts->fetch_add(1) + 1 < Needed) {
      T->runAfterOrWrite(Node, 1000, std::move(*this));
      return;
    }
    Finished->store(true);
  }
};

TEST_P(VerbOwnership, SelfReschedulingRetryNeedsNoSharedOwnership) {
  Tracker Tr;
  std::atomic<int> Attempts{0};
  std::atomic<bool> Finished{false};
  T->runAfterOrWrite(2, 1000,
                     SelfRearmingRetry{T.get(), 2, 5, &Attempts, &Finished,
                                       Token(Tr)});
  for (int Spin = 0; Spin < 200000 && !Finished.load(); ++Spin) {
    if (Sim)
      Sim->run();
    else
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  settle();
  EXPECT_TRUE(Finished.load());
  EXPECT_EQ(Attempts.load(), 5);
  // Every re-arm moved the one capture along; it died exactly once.
  EXPECT_EQ(Tr.Destroyed.load(), 1);
  EXPECT_EQ(Tr.Live.load(), 0);
}

TEST_P(VerbOwnership, OneBufferPostedToThreePeersLandsByteExact) {
  ByteWriter W;
  for (unsigned I = 0; I < 300; ++I)
    W.u8(static_cast<std::uint8_t>(I * 7 + 1));
  Bytes Payload = W.take();
  std::atomic<int> Completions{0};
  for (NodeId Peer = 1; Peer <= 3; ++Peer) {
    T->postWrite(0, Peer, 128, Payload, UnprotectedRegion,
                 [&Completions](WcStatus St) {
                   EXPECT_EQ(St, WcStatus::Success);
                   Completions.fetch_add(1);
                 });
    if (GetParam() == TransportKind::Shm)
      // Copied into the destination before postWrite returned.
      EXPECT_EQ(Payload.useCount(), 1u);
  }
  if (GetParam() == TransportKind::Sim)
    // Shared, not copied, by the three in-flight writes.
    EXPECT_EQ(Payload.useCount(), 4u);
  settle();
  EXPECT_EQ(Payload.useCount(), 1u);
  EXPECT_EQ(Completions.load(), 3);
  T->pauseWorld();
  for (NodeId Peer = 1; Peer <= 3; ++Peer) {
    std::vector<std::uint8_t> Landed = T->memory(Peer).slice(128, 300);
    EXPECT_EQ(Landed, static_cast<std::vector<std::uint8_t>>(Payload))
        << "peer " << Peer;
  }
  T->resumeWorld();
}

INSTANTIATE_TEST_SUITE_P(Backends, VerbOwnership,
                         ::testing::Values(TransportKind::Sim,
                                           TransportKind::Shm),
                         [](const auto &Info) {
                           return std::string(
                               transportKindName(Info.param));
                         });

} // namespace
