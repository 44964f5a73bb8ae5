//===- bench/ablations.cpp - Design-choice ablations -------------------------=//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablations for the design decisions DESIGN.md calls out (not figures in
/// the paper, but checks of the claims behind them):
///
///  (i)   summaries vs buffers for a reducible method (gset vs
///        gset-buffered), generalizing Figure 9's GSet dual mode;
///  (ii)  the poll-interval sensitivity of the buffer-traversal threads;
///  (iii) responding after remote-write completions (default) vs right
///        after the local apply (unsafe-fast), isolating the price of
///        completion-based responses.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace hamband;
using namespace hamband::bench;
using benchlib::RuntimeKind;
using benchlib::WorkloadSpec;

namespace {

WorkloadSpec workload(std::uint64_t Ops = 24000, double Ratio = 0.25) {
  WorkloadSpec W;
  W.NumOps = Ops;
  W.UpdateRatio = Ratio;
  return W;
}

void runConfigured(benchmark::State &St, const std::string &TypeName,
                   runtime::HambandConfig Cfg) {
  auto Type = makeType(TypeName);
  benchlib::RunnerOptions Opts = makeOptions(RuntimeKind::Hamband, 4);
  Opts.Cfg = Cfg;
  benchlib::RunResult R;
  for (auto _ : St)
    R = benchlib::runWorkload(*Type, workload(), Opts);
  reportResult(St, R);
}

} // namespace

int main(int argc, char **argv) {
  // (i) Summaries vs buffers for the same object.
  for (const char *T : {"gset", "gset-buffered"}) {
    std::string Name = std::string("Ablation/summary_vs_buffer/") + T;
    benchmark::RegisterBenchmark(
        Name.c_str(),
        [T](benchmark::State &St) {
          runPoint(St, T, RuntimeKind::Hamband, 4, workload());
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }

  // (ii) Poll-interval sweep (buffered type: the traversal threads are on
  // the critical path of replication lag, not of client latency).
  for (double PollUs : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    std::string Name =
        "Ablation/poll_interval/orset/poll_us:" + std::to_string(PollUs);
    benchmark::RegisterBenchmark(
        Name.c_str(),
        [PollUs](benchmark::State &St) {
          runtime::HambandConfig Cfg;
          Cfg.PollInterval = sim::micros(PollUs);
          runConfigured(St, "orset", Cfg);
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }

  // (iii) Respond after completion vs after local apply.
  for (bool Late : {true, false}) {
    std::string Name = std::string("Ablation/respond/counter/") +
                       (Late ? "after_completion" : "after_local_apply");
    benchmark::RegisterBenchmark(
        Name.c_str(),
        [Late](benchmark::State &St) {
          runtime::HambandConfig Cfg;
          Cfg.RespondAfterCompletion = Late;
          runConfigured(St, "counter", Cfg);
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
