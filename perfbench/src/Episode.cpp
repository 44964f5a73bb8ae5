//===- perfbench/src/Episode.cpp - One closed-loop benchmark episode ------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Episode.h"

#include "hamband/sim/Simulator.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <time.h>

using namespace hamband;
using perfbench::EpisodeResult;
using Clock = std::chrono::steady_clock;

namespace {

/// Wall-clock cap on an episode; calls not completed by then fail. A
/// normal episode takes under 2 s.
constexpr double WallCapS = 10;
/// An episode is cut off earlier when no call completes for this long. On
/// sim a leader failover takes about 3 ms of simulated time, and a
/// deterministic run that stalls never recovers; on shm a pause of 2 s is
/// far beyond any scheduling hiccup.
constexpr double SimStallCapMs = 20;
constexpr double ShmStallCapS = 2;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double threadCpuNs() {
  timespec Ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) * 1e9 + static_cast<double>(Ts.tv_nsec);
}

std::uint64_t fnv(std::uint64_t H, std::uint64_t V) {
  for (int I = 0; I < 8; ++I) {
    H ^= (V >> (8 * I)) & 0xff;
    H *= 0x100000001b3ull;
  }
  return H;
}

std::uint64_t bitsOf(double D) {
  std::uint64_t U;
  std::memcpy(&U, &D, sizeof U);
  return U;
}

/// One completed call as the driver saw it.
struct Sample {
  /// Response time on the transport clock: wall on shm, simulated on sim.
  double RespUs;
  sim::SimTime DoneAt;
  MethodCategory Cat;
  bool Ok;
};

/// A closed-loop client: one per node, PipelineDepth calls in flight. On
/// shm every callback of client N runs on node N's thread (calls are
/// submitted at their origin), so a client's fields are thread-confined;
/// on sim everything runs on the driving thread.
struct Client {
  std::unique_ptr<benchlib::CallGenerator> Gen;
  std::uint64_t Budget = 0;
  std::uint64_t Issued = 0;
  std::uint64_t Done = 0;
  /// Completions seen per issued call, and completions of a call that had
  /// already completed.
  std::vector<std::uint8_t> Completions;
  std::uint64_t Repeats = 0;
  std::vector<Sample> Samples;
  double GenNs = 0;
  double SubmitNs = 0;
};

/// The closed-loop driver of one episode. Callbacks hold a plain pointer
/// to it: the cluster (and with it every queued closure) is torn down
/// before the driver.
class Driver {
public:
  Driver(const perfbench::WorkloadDef &W, const ObjectType &Type,
         const perfbench::EpisodeOptions &Opts,
         runtime::HambandCluster &Cluster)
      : W(W), Type(Type), Opts(Opts), Cluster(Cluster),
        T(Cluster.transport()), Spec(Type.coordination()),
        OnShm(Opts.Transport == rdma::TransportKind::Shm) {
    Workload = perfbench::workloadSpec(W);
    Workload.Seed = Opts.Seed;
    Workload.NumOps = Opts.Calls;
    Clients.resize(W.Nodes);
    for (unsigned N = 0; N < W.Nodes; ++N) {
      Clients[N].Gen =
          std::make_unique<benchlib::CallGenerator>(Type, Workload, N);
      Clients[N].Budget = Opts.Calls / W.Nodes + (N < Opts.Calls % W.Nodes);
      Clients[N].Completions.assign(Clients[N].Budget, 0);
      Clients[N].Samples.reserve(Clients[N].Budget);
    }
    FailAt = static_cast<std::uint64_t>(W.FailAtFraction *
                                        static_cast<double>(Opts.Calls));
    for (MethodId M = 0; M < Type.numMethods(); ++M)
      HasConflicting |= Spec.category(M) == MethodCategory::Conflicting;
  }

  /// Primes every client's pipeline.
  void prime() {
    for (unsigned N = 0; N < W.Nodes; ++N)
      for (unsigned D = 0; D < Workload.PipelineDepth; ++D)
        T.callOn(N, [this, N]() { issue(N); });
  }

  void issue(unsigned N) {
    Client &Cl = Clients[N];
    if (Cl.Issued >= Cl.Budget)
      return;
    const std::uint64_t K = Cl.Issued++;
    std::uint64_t Global = IssuedTotal.fetch_add(1) + 1;
    if (!OnShm && !MarkSet && Global >= FailAt) {
      // The failure point (or, without a failure, the same point in the
      // run) from which the completion-gap metric is taken.
      MarkSet = true;
      MarkT = T.now();
      if (W.FailNode)
        Cluster.injectFailure(*W.FailNode);
    }
    unsigned Origin = aliveOrigin(N);
    Clock::time_point G0;
    if (Opts.Trace)
      G0 = Clock::now();
    Call C = Cl.Gen->next(Origin, (static_cast<RequestId>(N) << 40) | (K + 1));
    MethodCategory Cat = Spec.category(C.Method);
    unsigned Target = Origin;
    if (Cat == MethodCategory::Conflicting && !OnShm) {
      // On sim the driver routes a conflicting call to the group leader
      // (the entry node retries successive leaders if it failed); on shm
      // leadership is concurrent node state, so the call enters at its
      // origin and the runtime's mailbox redirection finds the leader.
      unsigned Lead =
          Cluster.leaderOf(*Spec.syncGroup(C.Method), aliveOrigin(0));
      if (!Cluster.isFailed(Lead))
        Target = Lead;
    }
    if (Cat == MethodCategory::Conflicting)
      C.Issuer = Target;
    sim::SimTime At = T.now();
    Clock::time_point S0;
    if (Opts.Trace) {
      S0 = Clock::now();
      Cl.GenNs += std::chrono::duration<double, std::nano>(S0 - G0).count();
    }
    Cluster.submit(Target, C, [this, N, K, Cat, At](bool Ok, Value) {
      complete(N, K, Cat, At, Ok);
    });
    if (Opts.Trace)
      Cl.SubmitNs +=
          std::chrono::duration<double, std::nano>(Clock::now() - S0).count();
  }

  void complete(unsigned N, std::uint64_t K, MethodCategory Cat,
                sim::SimTime At, bool Ok) {
    Client &Cl = Clients[N];
    Cl.Repeats += Cl.Completions[K]++ != 0;
    sim::SimTime Now = T.now();
    Cl.Samples.push_back({static_cast<double>(Now - At) / 1000.0, Now, Cat, Ok});
    ++Cl.Done;
    // On sim the last completion ends the current slice, so the drain
    // loop steps finely from the exact moment the last call returned.
    if (Completed.fetch_add(1, std::memory_order_release) + 1 == Opts.Calls &&
        !OnShm)
      Cluster.simulator()->stop();
    // A completion delivered synchronously inside submit() would recurse
    // through the whole budget; past a small depth, continue from the
    // node's timer instead.
    if (Depth > 32) {
      T.runAfter(N, 1, [this, N]() { issue(N); });
      return;
    }
    ++Depth;
    issue(N);
    --Depth;
  }

  EpisodeResult run();

private:
  unsigned aliveOrigin(unsigned N) {
    if (!Cluster.isFailed(N))
      return N;
    for (unsigned K = 0; K < W.Nodes; ++K) {
      unsigned Cand = (N + ++Rotation) % W.Nodes;
      if (!Cluster.isFailed(Cand))
        return Cand;
    }
    return N;
  }

  void check(EpisodeResult &R);
  void drainSim(EpisodeResult &R);
  void drainShm(EpisodeResult &R);
  void collect(EpisodeResult &R);
  bool probeCallOn(EpisodeResult &R, Clock::time_point W0);

  const perfbench::WorkloadDef &W;
  const ObjectType &Type;
  const perfbench::EpisodeOptions &Opts;
  runtime::HambandCluster &Cluster;
  rdma::Transport &T;
  const CoordinationSpec &Spec;
  const bool OnShm;
  benchlib::WorkloadSpec Workload;
  std::vector<Client> Clients;
  std::atomic<std::uint64_t> IssuedTotal{0};
  std::atomic<std::uint64_t> Completed{0};
  std::uint64_t FailAt = 0;
  bool HasConflicting = false;
  bool MarkSet = false;
  sim::SimTime MarkT = 0;
  sim::SimTime StartT = 0;
  unsigned Rotation = 0;
  static thread_local unsigned Depth;
};

thread_local unsigned Driver::Depth = 0;

void Driver::check(EpisodeResult &R) {
  if (Opts.BeforeCheck)
    Opts.BeforeCheck(Cluster);
  std::uint64_t Done = 0;
  for (unsigned N = 0; N < W.Nodes; ++N) {
    const Client &Cl = Clients[N];
    Done += Cl.Done;
    if (Cl.Repeats)
      R.Errors.push_back("client " + std::to_string(N) + " saw " +
                         std::to_string(Cl.Repeats) +
                         " calls complete more than once");
  }
  if (Done != Completed.load())
    R.Errors.push_back("completion count mismatch");
  if (Done == Opts.Calls && Cluster.outstanding() != 0)
    R.Errors.push_back("runtime reports outstanding calls after the run");
  if (!Cluster.converged())
    R.Errors.push_back("replicas did not converge");
  if (!Cluster.appliedTablesEqual())
    R.Errors.push_back("applied tables differ between replicas");
  for (unsigned N = 0; N < W.Nodes; ++N)
    if (!Type.invariant(Cluster.node(N).visibleState()))
      R.Errors.push_back("replica " + std::to_string(N) +
                         " violates the type invariant");
}

void Driver::drainSim(EpisodeResult &R) {
  sim::Simulator &Sim = *Cluster.simulator();
  const sim::SimDuration Slice = sim::micros(20);
  const sim::SimDuration TailSlice = sim::nanos(100);
  double BacklogSum = 0;
  std::uint64_t BacklogN = 0;
  Clock::time_point W0 = Clock::now();
  std::uint64_t LastDone = 0;
  sim::SimTime LastProgress = StartT;
  while (secondsSince(W0) < WallCapS) {
    if (std::uint64_t Done = Completed.load(); Done != LastDone) {
      LastDone = Done;
      LastProgress = Sim.now();
    } else if (Done < Opts.Calls &&
               Sim.now() - LastProgress > sim::millis(SimStallCapMs)) {
      break;
    }
    // Once every call completed, step finely so the end of replication
    // (and with it the simulated throughput) is not rounded to a slice.
    const bool Tail = Completed.load() == Opts.Calls;
    Sim.run(Sim.now() + (Tail ? TailSlice : Slice));
    if (Opts.Trace && !Tail)
      probeCallOn(R, W0);
    if (!Tail) {
      BacklogSum += static_cast<double>(Cluster.replicationBacklog());
      ++BacklogN;
    }
    if (Completed.load() == Opts.Calls && Cluster.fullyReplicated()) {
      R.Finished = true;
      break;
    }
    if (Sim.idle())
      break;
  }
  R.DurationUs = sim::toMicros(Sim.now() - StartT);
  R.MeanBacklog = BacklogN ? BacklogSum / static_cast<double>(BacklogN) : 0;
  if (!R.Finished && Completed.load() == Opts.Calls)
    R.Errors.push_back("updates not fully replicated by the cap");
  // The simulated world is paused between slices: the check runs inline.
  Clock::time_point P0 = Clock::now();
  check(R);
  R.PauseNs = std::chrono::duration<double, std::nano>(Clock::now() - P0)
                  .count();
}

bool Driver::probeCallOn(EpisodeResult &R, Clock::time_point W0) {
  // Executor hop latency on the wall clock: a callOn from this thread to
  // a node (enqueue and wake on shm, an inline call on sim). The flag is
  // shared with the closure, which may run after this frame is gone.
  unsigned Node = static_cast<unsigned>(R.CallOnUs.size()) % W.Nodes;
  struct Probe {
    std::atomic<bool> Ran{false};
    Clock::time_point RanAt;
  };
  auto P = std::make_shared<Probe>();
  Clock::time_point Posted = Clock::now();
  T.callOn(Node, [P]() {
    P->RanAt = Clock::now();
    P->Ran.store(true, std::memory_order_release);
  });
  while (!P->Ran.load(std::memory_order_acquire)) {
    if (secondsSince(W0) > WallCapS)
      return false;
    std::this_thread::yield();
  }
  R.CallOnUs.push_back(
      std::chrono::duration<double, std::micro>(P->RanAt - Posted).count());
  return true;
}

void Driver::drainShm(EpisodeResult &R) {
  // Watch the completion count; pause the world only once everything
  // completed, to confirm replication and run the checks race-free.
  Clock::time_point W0 = Clock::now();
  auto NextProbe = W0;
  std::uint64_t LastDone = 0;
  Clock::time_point LastProgress = W0;
  for (;;) {
    if (Completed.load(std::memory_order_acquire) == Opts.Calls &&
        Cluster.outstanding() == 0) {
      sim::SimTime EndT = T.now();
      bool Replicated = false;
      Clock::time_point P0 = Clock::now();
      Cluster.withPausedWorld([&]() {
        Replicated = Cluster.fullyReplicated();
        if (Replicated)
          check(R);
      });
      R.PauseNs += std::chrono::duration<double, std::nano>(Clock::now() - P0)
                       .count();
      if (Replicated) {
        R.Finished = true;
        R.DurationUs = sim::toMicros(EndT - StartT);
        return;
      }
    }
    if (std::uint64_t Done = Completed.load(); Done != LastDone) {
      LastDone = Done;
      LastProgress = Clock::now();
    }
    if (secondsSince(W0) > WallCapS ||
        secondsSince(LastProgress) > ShmStallCapS)
      break;
    if (Opts.Trace && Clock::now() >= NextProbe) {
      if (!probeCallOn(R, W0))
        break;
      NextProbe = Clock::now() + std::chrono::microseconds(500);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  // Cap reached: stop the node threads and check what is left.
  Cluster.stopTransport();
  R.DurationUs = sim::toMicros(T.now() - StartT);
  if (Completed.load() == Opts.Calls)
    R.Errors.push_back("updates not fully replicated by the cap");
  check(R);
}

void Driver::collect(EpisodeResult &R) {
  R.Issued = Opts.Calls;
  R.Completed = Completed.load();
  std::vector<double> Resp, UpdResp;
  std::array<std::vector<double>, perfbench::NumCategories> Cat;
  std::vector<sim::SimTime> Coordinated;
  double UpdSum = 0;
  std::uint64_t Digest = 0xcbf29ce484222325ull;
  for (unsigned N = 0; N < W.Nodes; ++N) {
    Client &Cl = Clients[N];
    R.GenNs += Cl.GenNs;
    R.SubmitNs += Cl.SubmitNs;
    for (const Sample &S : Cl.Samples) {
      const bool Update = S.Cat != MethodCategory::Query;
      Resp.push_back(S.RespUs);
      Cat[static_cast<unsigned>(S.Cat)].push_back(S.RespUs);
      if (Update) {
        UpdResp.push_back(S.RespUs);
        UpdSum += S.RespUs;
      }
      if (S.Cat == MethodCategory::Conflicting) {
        ++R.ConfCalls;
        R.ConfRejected += !S.Ok;
      }
      if (OnShm)
        continue;
      bool Coord = HasConflicting ? S.Cat == MethodCategory::Conflicting
                                  : Update;
      if (Coord && S.DoneAt >= MarkT)
        Coordinated.push_back(S.DoneAt);
      Digest = fnv(fnv(fnv(Digest, bitsOf(S.RespUs)),
                       static_cast<std::uint64_t>(S.DoneAt)),
                   S.Ok);
    }
  }
  auto Sorted = [](std::vector<double> &V) -> const std::vector<double> & {
    std::sort(V.begin(), V.end());
    return V;
  };
  using perfbench::sortedQuantile;
  R.Updates = UpdResp.size();
  R.RespP99Us = sortedQuantile(Sorted(Resp), 0.99);
  R.UpdateMeanUs = R.Updates ? UpdSum / static_cast<double>(R.Updates) : 0;
  R.UpdateP99Us = sortedQuantile(Sorted(UpdResp), 0.99);
  for (unsigned C = 0; C < perfbench::NumCategories; ++C) {
    R.CatP50Us[C] = sortedQuantile(Sorted(Cat[C]), 0.5);
    R.CatP99Us[C] = sortedQuantile(Cat[C], 0.99);
  }
  if (OnShm)
    return;
  std::sort(Coordinated.begin(), Coordinated.end());
  sim::SimTime Prev = MarkT;
  sim::SimDuration Gap = 0;
  for (sim::SimTime At : Coordinated) {
    Gap = std::max<sim::SimDuration>(Gap, At - Prev);
    Prev = At;
  }
  R.FailoverUs = sim::toMicros(Gap);
  for (double V :
       {R.DurationUs, R.MeanBacklog, R.FailoverUs, R.UpdateMeanUs})
    Digest = fnv(Digest, bitsOf(V));
  R.SimDigest = fnv(Digest, R.Completed);
}

EpisodeResult Driver::run() {
  EpisodeResult R;
  sim::Simulator *Sim = Cluster.simulator();
  std::uint64_t Events = 0;
  if (Sim && Opts.Trace)
    Sim->setPopObserver([&Events](const sim::EventLabel &) { ++Events; });
  std::uint64_t Events0 = Sim ? Sim->executedEvents() : 0;
  double Cpu0 = threadCpuNs();
  StartT = T.now();
  prime();
  if (OnShm)
    drainShm(R);
  else
    drainSim(R);
  R.DriverCpuNs = threadCpuNs() - Cpu0;
  if (Sim) {
    R.SimEvents = Sim->executedEvents() - Events0;
    if (Opts.Trace) {
      Sim->setPopObserver(nullptr);
      R.TracedEventsPerCall =
          static_cast<double>(Events) / static_cast<double>(Opts.Calls);
    }
  }
  if (Opts.Trace)
    R.Stats = Cluster.statsSnapshot();
  // Join the node threads before reading the clients' samples.
  Cluster.stopTransport();
  collect(R);
  return R;
}

std::unique_ptr<runtime::HambandCluster>
buildCluster(const perfbench::WorkloadDef &W, const ObjectType &Type,
             rdma::TransportKind Kind) {
  auto C = std::make_unique<runtime::HambandCluster>(
      Kind, W.Nodes, Type, rdma::NetworkModel(), W.Cfg);
  C->start();
  return C;
}

} // namespace

benchlib::WorkloadSpec perfbench::workloadSpec(const WorkloadDef &W) {
  benchlib::WorkloadSpec Spec;
  Spec.UpdateRatio = W.UpdateRatio;
  return Spec;
}

EpisodeResult perfbench::runEpisode(const WorkloadDef &W,
                                    const ObjectType &Type,
                                    const EpisodeOptions &Opts) {
  Clock::time_point S0 = Clock::now();
  std::unique_ptr<runtime::HambandCluster> Cluster =
      buildCluster(W, Type, Opts.Transport);
  Clock::time_point S1 = Clock::now();
  Driver D(W, Type, Opts, *Cluster);
  EpisodeResult R = D.run();
  R.SetupS = std::chrono::duration<double>(S1 - S0).count();
  R.WallS = secondsSince(S1);
  // Queued closures reference the driver: tear the cluster down first.
  Cluster.reset();
  return R;
}

double perfbench::sortedQuantile(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  std::size_t Rank = static_cast<std::size_t>(
      std::ceil(Q * static_cast<double>(Sorted.size())));
  Rank = std::min(std::max<std::size_t>(Rank, 1), Sorted.size());
  return Sorted[Rank - 1];
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t H = V.size() / 2;
  return V.size() % 2 ? V[H] : (V[H - 1] + V[H]) / 2;
}
