//===- perfbench/src/main.cpp - The repository benchmark ------------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///           [--smoke]
/// perfbench --selftest-diverge
///
/// Runs one workload for about --seconds and prints, as its last line,
/// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
/// with --trace 0, the per-layer metrics with --trace 1. A run repeats
/// episodes (fresh cluster, the same seeded calls) and reports medians
/// over them, over the faster half for the wall-clock metrics.
/// Workloads, metrics and their expected interactions are described in
/// perfbench/NOTES.md.
///
//===----------------------------------------------------------------------===//

#include "Episode.h"
#include "LayerPass.h"

#include "hamband/core/TypeRegistry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <malloc.h>
#include <sys/resource.h>

using namespace hamband;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace {

std::vector<WorkloadDef> workloads() {
  std::vector<WorkloadDef> V;
  {
    WorkloadDef W;
    W.Name = "shm-bank";
    W.TypeName = "bank-account";
    W.Transport = rdma::TransportKind::Shm;
    W.Nodes = 2;
    W.UpdateRatio = 0.5;
    W.Calls = 150000;
    W.TwinCalls = 60000;
    V.push_back(W);
  }
  {
    WorkloadDef W;
    W.Name = "sim-courseware-fail";
    W.TypeName = "courseware";
    W.Transport = rdma::TransportKind::Sim;
    W.Nodes = 4;
    W.UpdateRatio = 0.25;
    W.Calls = 200000;
    // Node 3 leads no group: a follower fails, as in Fig. 13's follower
    // scenario.
    W.FailNode = 3;
    W.FailAtFraction = 0.4;
    // Detection scaled to the run the way fig13 scales it.
    W.Cfg.Heartbeat.CheckInterval = sim::micros(400);
    W.Cfg.Heartbeat.SuspectAfter = 6;
    V.push_back(W);
    // Not in BENCHMARK.json: group 0's leader (node 0) fails instead. It
    // reproduces the split-leadership stall described in NOTES.md on the
    // seeds listed there.
    W.Name = "sim-courseware-leaderfail";
    W.FailNode = 0;
    V.push_back(W);
  }
  return V;
}

std::optional<WorkloadDef> findWorkload(const std::string &Name) {
  for (const WorkloadDef &W : workloads())
    if (W.Name == Name)
      return W;
  return std::nullopt;
}

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

/// The run's outcome: every episode counts towards attempted/failed.
struct Tally {
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  bool Correct = true;

  void add(const EpisodeResult &R, const char *What) {
    Attempted += R.Issued;
    Failed += R.failedCalls();
    if (!R.ok()) {
      Correct = false;
      std::printf("check failed (%s):", What);
      if (!R.Finished)
        std::printf(" %llu of %llu calls completed by the cap;",
                    static_cast<unsigned long long>(R.Completed),
                    static_cast<unsigned long long>(R.Issued));
      for (const std::string &E : R.Errors)
        std::printf(" %s;", E.c_str());
      std::printf("\n");
    }
  }
};

/// Checks that every simulated figure of \p Runs (same seed) is
/// bit-identical.
void checkDeterminism(const std::vector<EpisodeResult> &Runs, Tally &T) {
  for (const EpisodeResult &R : Runs)
    if (R.SimDigest != Runs.front().SimDigest) {
      std::printf("check failed: simulated results differ between "
                  "episodes with the same seed\n");
      T.Correct = false;
      T.Failed += R.Issued;
      return;
    }
}

/// Completed calls per second of the transport clock until full
/// replication.
double tputOpsS(const EpisodeResult &R) {
  return R.DurationUs > 0
             ? static_cast<double>(R.Completed) / (R.DurationUs / 1e6)
             : 0;
}

/// Median over episodes of Fn(episode).
template <typename FnT>
double medianOver(const std::vector<EpisodeResult> &Runs, FnT Fn) {
  std::vector<double> V;
  for (const EpisodeResult &R : Runs)
    V.push_back(Fn(R));
  return median(V);
}

/// The faster half of \p Runs by wall time. On a shared 4-vCPU VM the
/// hypervisor took up to 14% of the CPUs (steal time) for seconds at a
/// time, and a shm episode caught in such a stretch ran up to 45% slower;
/// the wall-clock metrics are medians over the episodes it spared.
std::vector<EpisodeResult> fasterHalf(std::vector<EpisodeResult> Runs) {
  std::stable_sort(Runs.begin(), Runs.end(), [](auto &A, auto &B) {
    return A.WallS < B.WallS;
  });
  Runs.resize((Runs.size() + 1) / 2);
  return Runs;
}

void printResult(const Tally &T, const Metrics &M,
                 const std::map<std::string, std::string> &Units) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              T.Correct && T.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(T.Attempted),
              static_cast<unsigned long long>(T.Failed));
  bool First = true;
  for (const auto &[Name, Value] : M) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(),
                std::isfinite(Value) ? Value : 0.0, Units.at(Name).c_str());
    First = false;
  }
  std::printf("}}\n");
}

struct Args {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Smoke = false;
  bool SelftestDiverge = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (K == "--smoke") {
      A.Smoke = true;
    } else if (K == "--selftest-diverge") {
      A.SelftestDiverge = true;
    } else if ((V = Next()) == nullptr) {
      return false;
    } else if (K == "--workload") {
      A.Workload = V;
    } else if (K == "--seed") {
      A.Seed = std::strtoull(V, nullptr, 10);
    } else if (K == "--seconds") {
      A.Seconds = std::atof(V);
    } else if (K == "--trace") {
      A.Trace = std::atoi(V) != 0;
    } else {
      return false;
    }
  }
  return A.SelftestDiverge || !A.Workload.empty();
}

/// Runs a small bank-account episode twice: untouched, and with one
/// replica's deposit summary overwritten before the checks. The checks
/// must pass the first and fail the second.
int selftestDiverge() {
  WorkloadDef W = *findWorkload("shm-bank");
  std::unique_ptr<ObjectType> Type = makeType(W.TypeName);
  EpisodeOptions O;
  O.Seed = 7;
  O.Calls = 3000;
  O.Transport = rdma::TransportKind::Sim;
  EpisodeResult Clean = runEpisode(W, *Type, O);
  O.BeforeCheck = [&Type](runtime::HambandCluster &C) {
    MethodId Deposit = Type->methodId("deposit");
    unsigned Group = *Type->coordination().sumGroup(Deposit);
    C.node(1).seedSummary(Group, 0, Call(Deposit, {1000000}, 0, 0), 1u << 30);
  };
  EpisodeResult Diverged = runEpisode(W, *Type, O);
  bool Pass = Clean.ok() && !Diverged.ok() && Diverged.failedCalls() == O.Calls;
  std::printf("{\"clean_ok\": %s, \"diverged_detected\": %s}\n",
              Clean.ok() ? "true" : "false",
              Diverged.ok() ? "false" : "true");
  return Pass ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr, "usage: perfbench --workload <name> --seed <n> "
                         "--seconds <s> --trace <0|1> [--smoke]\n"
                         "       perfbench --selftest-diverge\n");
    return 2;
  }
  if (A.SelftestDiverge)
    return selftestDiverge();
  // glibc raises its mmap threshold when a large block is freed, after
  // which cluster regions come from reused heap memory: set-up time then
  // drops from about 15 ms to about 1 ms at a point of the run that varies
  // from run to run. Fixing the threshold at its default keeps every
  // episode's set-up as cold as a process's first one.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  std::optional<WorkloadDef> Found = findWorkload(A.Workload);
  if (!Found) {
    std::fprintf(stderr, "unknown workload '%s'\n", A.Workload.c_str());
    return 2;
  }
  WorkloadDef W = *Found;
  const bool OnShm = W.Transport == rdma::TransportKind::Shm;
  unsigned MinEpisodes = 3;
  std::size_t LayerCalls = 20000;
  if (A.Smoke) {
    W.Calls /= 20;
    W.TwinCalls /= 20;
    MinEpisodes = 2;
    LayerCalls = 2000;
  }
  std::unique_ptr<ObjectType> Type = makeType(W.TypeName);
  Clock::time_point Start = Clock::now();
  Tally T;

  EpisodeOptions Primary;
  Primary.Seed = A.Seed;
  Primary.Calls = W.Calls;
  Primary.Transport = W.Transport;
  EpisodeOptions Twin = Primary;
  Twin.Calls = W.TwinCalls;
  Twin.Transport = rdma::TransportKind::Sim;

  // Rounds of episodes run while the next round, assumed as long as the
  // last, still ends within the budget.
  Clock::time_point RoundStart = Clock::now();
  double LastRoundS = 0;
  auto nextRound = [&](double BudgetS) {
    LastRoundS = secondsSince(RoundStart);
    RoundStart = Clock::now();
    return secondsSince(Start) + LastRoundS <= BudgetS;
  };

  std::map<std::string, std::string> Units;
  Metrics M;
  auto Put = [&](const std::string &Name, double V, const char *Unit) {
    M[Name] = V;
    Units[Name] = Unit;
  };

  if (!A.Trace) {
    // Shm workloads run their simulated twin once before and once after
    // the shm episodes: the first supplies the simulated figures, the
    // second checks that they repeat.
    std::vector<EpisodeResult> Runs, TwinRuns;
    auto runTwin = [&]() {
      TwinRuns.push_back(runEpisode(W, *Type, Twin));
      T.add(TwinRuns.back(), "simulated twin");
    };
    double TwinS = 0;
    if (OnShm) {
      Clock::time_point T0 = Clock::now();
      runTwin();
      TwinS = secondsSince(T0);
    }
    RoundStart = Clock::now();
    do {
      Runs.push_back(runEpisode(W, *Type, Primary));
      T.add(Runs.back(), W.Name.c_str());
    } while (nextRound(A.Seconds - TwinS) || Runs.size() < MinEpisodes);
    if (OnShm)
      runTwin();
    const std::vector<EpisodeResult> &SimRuns = OnShm ? TwinRuns : Runs;
    const std::uint64_t SimCalls = OnShm ? W.TwinCalls : W.Calls;
    checkDeterminism(SimRuns, T);
    const EpisodeResult &S0 = SimRuns.front();

    const std::vector<EpisodeResult> Kept = fasterHalf(Runs);
    // On sim the workload's own figures are simulated, so the sim_*
    // metrics of the sim workload repeat tput_ops_s and resp_p99_us.
    Put("setup_s", medianOver(Kept, [](auto &R) { return R.SetupS; }), "s");
    Put("tput_ops_s", medianOver(Kept, tputOpsS), "1/s");
    Put("resp_p99_us",
        medianOver(Kept, [](auto &R) { return R.RespP99Us; }), "us");
    Put("update_p99_us",
        medianOver(Kept, [](auto &R) { return R.UpdateP99Us; }), "us");
    Put("completed_frac",
        T.Attempted ? 1.0 - static_cast<double>(T.Failed) /
                                static_cast<double>(T.Attempted)
                    : 0.0,
        "frac");
    Put("sim_tput_ops_us", tputOpsS(S0) / 1e6, "1/us");
    Put("sim_resp_p99_us", S0.RespP99Us, "us");
    Put("sim_update_mean_us", S0.UpdateMeanUs, "us");
    Put("staleness_calls", S0.MeanBacklog, "calls");
    Put("peak_rss_mb", peakRssMb(), "MB");
    std::printf("per-episode tput_ops_s:");
    for (const EpisodeResult &R : Runs)
      std::printf(" %.0f", tputOpsS(R));
    std::printf("\n%s: %zu episodes of %llu calls on %s (p99 over %llu "
                "calls and %llu updates each); %zu simulated episodes of "
                "%llu calls, digest %016llx\n",
                W.Name.c_str(), Runs.size(),
                static_cast<unsigned long long>(W.Calls),
                OnShm ? "shm" : "sim",
                static_cast<unsigned long long>(Runs.front().Completed),
                static_cast<unsigned long long>(Runs.front().Updates),
                SimRuns.size(), static_cast<unsigned long long>(SimCalls),
                static_cast<unsigned long long>(S0.SimDigest));
  } else {
    // Untraced and traced episodes alternate; their difference is the
    // tracing overhead.
    const double TracedS = 0.6 * A.Seconds;
    std::vector<EpisodeResult> Plain, Traced;
    EpisodeOptions TracedOpts = Primary;
    TracedOpts.Trace = true;
    do {
      Plain.push_back(runEpisode(W, *Type, Primary));
      T.add(Plain.back(), W.Name.c_str());
      Traced.push_back(runEpisode(W, *Type, TracedOpts));
      T.add(Traced.back(), W.Name.c_str());
    } while (nextRound(TracedS) || Traced.size() < MinEpisodes - 1);
    // Host cost of the simulation: the sim workload's untraced episodes,
    // or three untraced twin episodes of a shm workload, plus one traced
    // sim episode for the event count.
    std::vector<EpisodeResult> SimPlain;
    EpisodeResult SimTraced;
    if (OnShm) {
      EpisodeOptions TwinTraced = Twin;
      TwinTraced.Trace = true;
      for (int I = 0; I < 3; ++I) {
        SimPlain.push_back(runEpisode(W, *Type, Twin));
        T.add(SimPlain.back(), "simulated twin");
      }
      SimTraced = runEpisode(W, *Type, TwinTraced);
      T.add(SimTraced, "simulated twin");
    } else {
      SimPlain = Plain;
      SimTraced = Traced.front();
    }
    std::vector<EpisodeResult> SimAll = SimPlain;
    SimAll.push_back(SimTraced);
    checkDeterminism(SimAll, T);
    const double SimCalls = static_cast<double>(SimTraced.Issued);
    Put("host_ns_per_call", medianOver(SimPlain, [&](auto &R) {
          return R.DriverCpuNs / SimCalls;
        }),
        "ns");

    // Per-call cost on the workload's own clock: wall time per completed
    // call on shm, driving-thread CPU per call on sim.
    auto CostNs = [&](const EpisodeResult &R) {
      return OnShm ? R.DurationUs * 1000.0 / static_cast<double>(R.Completed)
                   : R.DriverCpuNs / static_cast<double>(R.Issued);
    };
    double PlainNs = medianOver(Plain, CostNs);
    double TracedNs = medianOver(Traced, CostNs);
    Put("trace.untraced_ns_per_call", PlainNs, "ns");
    Put("trace.traced_ns_per_call", TracedNs, "ns");
    Put("trace.overhead_pct", 100.0 * (TracedNs / PlainNs - 1.0), "%");

    // Neither workload's type has irreducible conflict-free methods, so
    // the free category has no figures.
    static const char *CatNames[NumCategories] = {"reducible", nullptr,
                                                  "conflicting", "query"};
    for (unsigned C = 0; C < NumCategories; ++C) {
      if (!CatNames[C])
        continue;
      std::string Base = std::string("runtime.resp_us.") + CatNames[C];
      Put(Base + ".p50",
          medianOver(Traced, [C](auto &R) { return R.CatP50Us[C]; }), "us");
      Put(Base + ".p99",
          medianOver(Traced, [C](auto &R) { return R.CatP99Us[C]; }), "us");
    }
    obs::StatsSnapshot Stats;
    double Calls = 0, Conf = 0, ConfRej = 0, Gen = 0, Submit = 0, Timed = 0;
    double CallOnSum = 0, PauseSum = 0;
    std::vector<double> CallOn;
    for (const EpisodeResult &R : Traced) {
      Stats.merge(R.Stats);
      Calls += static_cast<double>(R.Completed);
      Conf += static_cast<double>(R.ConfCalls);
      ConfRej += static_cast<double>(R.ConfRejected);
      Gen += R.GenNs;
      Submit += R.SubmitNs;
      Timed += static_cast<double>(R.Issued);
      CallOn.insert(CallOn.end(), R.CallOnUs.begin(), R.CallOnUs.end());
      PauseSum += R.PauseNs;
    }
    for (double V : CallOn)
      CallOnSum += V;
    const double Eps = static_cast<double>(Traced.size());
    auto Ctr = [&](const char *Name) {
      return static_cast<double>(Stats.counter(Name));
    };
    auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
    Put("rdma.call_on_us", Ratio(CallOnSum, static_cast<double>(CallOn.size())),
        "us");
    Put("runtime.submit_ns", Ratio(Submit, Timed), "ns");
    Put("benchlib.gen_ns", Ratio(Gen, Timed), "ns");
    Put("runtime.reject_frac", Ratio(ConfRej, Conf), "frac");
    Put("rdma.write_per_call", Ratio(Ctr("rdma.write"), Calls), "count");
    Put("rdma.read_per_call", Ratio(Ctr("rdma.read"), Calls), "count");
    Put("rdma.bytes_per_call", Ratio(Ctr("rdma.bytes_written"), Calls), "B");
    Put("ring.append_per_call", Ratio(Ctr("ring.append"), Calls), "count");
    Put("ring.canary_retry_per_consume",
        Ratio(Ctr("ring.canary_retry"), Ctr("ring.consume")), "count");
    Put("ring.full_stall_per_append",
        Ratio(Ctr("ring.full_stall"), Ctr("ring.append")), "count");
    Put("node.dep_stall.conf_per_call",
        Ratio(Ctr("node.dep_stall.conf"), Calls), "count");
    Put("mu.append_per_conf", Ratio(Ctr("mu.append"), Conf), "count");
    Put("bcast.recovered", Ratio(Ctr("bcast.recovered"), Eps), "count");
    Put("failover_us", SimTraced.FailoverUs, "us");
    Put("bench.pause_ns", Ratio(PauseSum, Eps), "ns");
    Put("sim.events_per_call", SimTraced.TracedEventsPerCall, "count");
    Put("sim.ns_per_event", medianOver(SimPlain, [&](auto &R) {
          return Ratio(R.DriverCpuNs, static_cast<double>(R.SimEvents));
        }),
        "ns");

    Metrics Layers;
    runLayerPass(W, *Type, A.Seed, LayerCalls, Layers);
    for (const auto &[Name, V] : Layers) {
      const bool Us = Name.size() > 3 && Name.substr(Name.size() - 3) == "_us";
      Put(Name, V, Us ? "us" : "ns");
    }
    std::sort(CallOn.begin(), CallOn.end());
    std::printf("%s traced: %zu untraced + %zu traced episodes of %llu calls; "
                "%zu callOn probes (p10 %.1f, p50 %.1f, p90 %.1f us)\n",
                W.Name.c_str(), Plain.size(), Traced.size(),
                static_cast<unsigned long long>(W.Calls), CallOn.size(),
                sortedQuantile(CallOn, 0.1), sortedQuantile(CallOn, 0.5),
                sortedQuantile(CallOn, 0.9));
  }
  printResult(T, M, Units);
  return 0;
}
