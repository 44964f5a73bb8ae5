//===- tests/SimTimingPinTests.cpp - Simulated-timing golden pins -------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
// Pins the simulated outcome of three small benchmark points to exact
// golden values: throughput, p99 and mean response time, and a digest of
// every replica's applied-counts table. The simulator is deterministic,
// so any change to what the propagation path posts, in which order, or
// what CPU time it charges moves at least one of these numbers. The full figure
// runs (scripts/bench_regress.sh) only hold fig8 to within 5%, which a
// one-tick drift passes.
//
// A change that alters simulated timing on purpose must re-record the
// golden values and say why in its change description.
//===----------------------------------------------------------------------===//

#include "hamband/benchlib/Runner.h"
#include "hamband/core/TypeRegistry.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace hamband;
using namespace hamband::benchlib;

namespace {

struct Golden {
  double TputOpsPerUs;
  double P99Us;
  /// Throughput is quantized by the driver's 20 us run slices; the mean
  /// response moves with any single tick.
  double MeanUs;
  std::uint64_t AppliedDigest;
};

RunResult runPinned(const std::string &TypeName, const WorkloadSpec &W,
                    const runtime::HambandConfig &Cfg) {
  auto Type = makeType(TypeName);
  RunnerOptions RO;
  RO.Kind = RuntimeKind::Hamband;
  RO.NumNodes = 4;
  RO.Repetitions = 1;
  RO.Cfg = Cfg;
  return runWorkload(*Type, W, RO);
}

void expectGolden(const RunResult &R, std::uint64_t Ops, const Golden &G) {
  std::printf("pin: tput %.17g p99 %.17g mean %.17g digest 0x%016llx\n",
              R.ThroughputOpsPerUs, R.P99ResponseUs, R.MeanResponseUs,
              static_cast<unsigned long long>(R.AppliedDigest));
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.CompletedOps, Ops);
  EXPECT_EQ(R.ThroughputOpsPerUs, G.TputOpsPerUs);
  EXPECT_EQ(R.P99ResponseUs, G.P99Us);
  EXPECT_EQ(R.MeanResponseUs, G.MeanUs);
  EXPECT_EQ(R.AppliedDigest, G.AppliedDigest);
}

/// The fig8 counter point (4 nodes, 25% updates) at a small op count.
WorkloadSpec fig8Workload() {
  WorkloadSpec W;
  W.NumOps = 4000;
  W.UpdateRatio = 0.25;
  return W;
}

} // namespace

TEST(SimTimingPin, Fig8CounterUnbatched) {
  runtime::HambandConfig Cfg;
  Cfg.Batch.MaxCalls = 1;
  expectGolden(runPinned("counter", fig8Workload(), Cfg), 4000,
               {13.333333333333334, 6.4500000000000002, 2.3019065000000039,
                0x9928bc62f57c7603ull});
}

TEST(SimTimingPin, Fig8CounterBatched) {
  runtime::HambandConfig Cfg;
  Cfg.Batch.MaxCalls = 16;
  expectGolden(runPinned("counter", fig8Workload(), Cfg), 4000,
               {20, 5.5019999999999998, 1.4738835000000072,
                0x17d6a7fb09c0c823ull});
}

TEST(SimTimingPin, CoursewareFollowerFailure) {
  // Fig. 13's follower scenario: node 3 leads no sync group and fails
  // after 40% of the calls were issued; the survivors detect it and
  // fetch its backup slot.
  WorkloadSpec W;
  W.NumOps = 8000;
  W.UpdateRatio = 0.25;
  W.FailNode = 3u;
  W.FailAtFraction = 0.4;
  runtime::HambandConfig Cfg;
  Cfg.Heartbeat.CheckInterval = sim::micros(100);
  Cfg.Heartbeat.SuspectAfter = 4;
  expectGolden(runPinned("courseware", W, Cfg), 8000,
               {3.6363636363636362, 59.25, 8.7224812499995572,
                0xab3d66edc94c4f43ull});
}
