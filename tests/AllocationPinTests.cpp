//===- tests/AllocationPinTests.cpp - Heap allocations per call ---------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
// Pins how many heap allocations a completed call costs, process-wide,
// on two shapes:
//
//  - the shm-bank benchmark shape: bank-account on the shm transport, two
//    nodes, 50% updates (deposit and withdraw drawn 1:1), a closed loop
//    of 8 outstanding calls per node through HambandCluster::submit. On
//    real threads the allocator is on the critical path; the runtime's
//    hot path (one move-only task type, one shared byte buffer) keeps a
//    call under 10 allocations, including the driver's own generated
//    call;
//  - fig8's sim counter point (4 nodes, 25% updates, 6000 calls), which
//    must not allocate more than it did before that hot-path rework.
//
// This binary replaces the global operator new/delete with counting
// versions, which is why it is a test executable of its own. Sanitizers
// replace operator new themselves, so under HAMBAND_SANITIZE the tests
// skip and no replacement is compiled.
//===----------------------------------------------------------------------===//

#include "hamband/benchlib/Figures.h"
#include "hamband/benchlib/Workload.h"
#include "hamband/core/TypeRegistry.h"
#include "hamband/runtime/HambandCluster.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>

using namespace hamband;

namespace {
std::atomic<std::uint64_t> Allocations{0};
} // namespace

#ifndef HAMBAND_SANITIZED

namespace {
void *countedAlloc(std::size_t N) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}

void *countedAlignedAlloc(std::size_t N, std::align_val_t A) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t Align = static_cast<std::size_t>(A);
  if (void *P = std::aligned_alloc(Align, (N + Align - 1) / Align * Align))
    return P;
  throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t N) { return countedAlloc(N); }
void *operator new[](std::size_t N) { return countedAlloc(N); }
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(N ? N : 1);
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(N ? N : 1);
}
void *operator new(std::size_t N, std::align_val_t A) {
  return countedAlignedAlloc(N, A);
}
void *operator new[](std::size_t N, std::align_val_t A) {
  return countedAlignedAlloc(N, A);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}

#endif // HAMBAND_SANITIZED

namespace {

/// Completions of the closed loop, and the process-wide allocation count
/// sampled at two exact completion counts.
struct LoopProgress {
  std::uint64_t MarkAt = 0;
  std::uint64_t EndAt = 0;
  std::atomic<std::uint64_t> Completed{0};
  std::atomic<std::uint64_t> AllocsAtMark{0};
  std::atomic<std::uint64_t> AllocsAtEnd{0};

  void complete() {
    std::uint64_t N = Completed.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (N == MarkAt)
      AllocsAtMark.store(Allocations.load());
    if (N == EndAt)
      AllocsAtEnd.store(Allocations.load());
  }
};

/// The closed-loop client of one node: issues its next call from the
/// previous call's completion, on the node's own worker.
struct BankClient {
  runtime::HambandCluster *Cluster = nullptr;
  std::unique_ptr<benchlib::CallGenerator> Gen;
  unsigned Node = 0;
  std::uint64_t Budget = 0;
  std::uint64_t Issued = 0;
  LoopProgress *Progress = nullptr;

  void issue() {
    if (Issued == Budget)
      return;
    Call C = Gen->next(Node, (static_cast<RequestId>(Node) << 40) | ++Issued);
    Cluster->submit(Node, std::move(C), [this](bool, Value) {
      Progress->complete();
      issue();
    });
  }
};

TEST(AllocationPin, ShmBankCallStaysUnderTenAllocations) {
#ifdef HAMBAND_SANITIZED
  GTEST_SKIP() << "sanitizers replace operator new";
#endif
  constexpr unsigned Nodes = 2;
  constexpr unsigned Depth = 8;
  constexpr std::uint64_t Calls = 40000;
  constexpr std::uint64_t Warmup = 4000;
  auto Type = makeType("bank-account");
  benchlib::WorkloadSpec W;
  W.UpdateRatio = 0.5;
  W.Seed = 51;
  W.NumOps = Calls;
  runtime::HambandCluster Cluster(rdma::TransportKind::Shm, Nodes, *Type);
  Cluster.start();
  // Counted from the end of the warm-up (rings, queues and caches at
  // their working sizes) to the last completion.
  LoopProgress Progress;
  Progress.MarkAt = Warmup;
  Progress.EndAt = Calls;
  std::vector<BankClient> Clients(Nodes);
  for (unsigned N = 0; N < Nodes; ++N) {
    Clients[N].Cluster = &Cluster;
    Clients[N].Gen = std::make_unique<benchlib::CallGenerator>(*Type, W, N);
    Clients[N].Node = N;
    Clients[N].Budget = Calls / Nodes;
    Clients[N].Progress = &Progress;
  }
  for (unsigned N = 0; N < Nodes; ++N)
    for (unsigned D = 0; D < Depth; ++D)
      Cluster.transport().callOn(N, [&Clients, N]() { Clients[N].issue(); });
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (Progress.Completed.load(std::memory_order_acquire) < Calls &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Cluster.stopTransport();
  ASSERT_EQ(Progress.Completed.load(), Calls)
      << "the closed loop did not finish";
  double PerCall = static_cast<double>(Progress.AllocsAtEnd.load() -
                                       Progress.AllocsAtMark.load()) /
                   static_cast<double>(Calls - Warmup);
  std::printf("shm-bank: %.2f allocations per completed call\n", PerCall);
  EXPECT_LE(PerCall, 10.0);
}

TEST(AllocationPin, SimFig8CounterPointAllocatesNoMoreThanBefore) {
#ifdef HAMBAND_SANITIZED
  GTEST_SKIP() << "sanitizers replace operator new";
#endif
  // The same count measured on the same point before the hot-path rework
  // (std::function closures and vector payloads): 257,373 allocations
  // over 6000 calls, 42.8955 per call. Simulated runs are deterministic,
  // so the count is exact for a given build.
  constexpr double BeforePerCall = 42.90;
  const benchlib::FigureRow *Fig8 = nullptr;
  std::vector<benchlib::Figure> Table = benchlib::figureTable();
  for (const benchlib::Figure &F : Table)
    if (F.Name == "fig8")
      Fig8 = &F.Rows.front();
  ASSERT_NE(Fig8, nullptr);
  std::uint64_t A0 = Allocations.load();
  benchlib::RunResult R = benchlib::runFigureRow(*Fig8);
  std::uint64_t A1 = Allocations.load();
  ASSERT_TRUE(R.Completed);
  double PerCall = static_cast<double>(A1 - A0) /
                   static_cast<double>(R.CompletedOps);
  std::printf("sim fig8: %.2f allocations per completed call\n", PerCall);
  EXPECT_LE(PerCall, BeforePerCall);
}

} // namespace
