//===- perfbench/src/Episode.h - One closed-loop benchmark episode -*- C++ -*-//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An episode builds a fresh HambandCluster, drives a fixed, seeded set of
/// calls through ReplicaRuntime::submit with a closed loop of
/// PipelineDepth outstanding calls per node, waits until every call
/// completed and every update is replicated everywhere, and then checks
/// the outcome: every call accounted for, replicas converged with equal
/// applied tables, and every replica's visible state satisfying the type
/// invariant. The driver stamps every call itself, so the response-time
/// percentiles are exact.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_EPISODE_H
#define PERFBENCH_EPISODE_H

#include "hamband/benchlib/Workload.h"
#include "hamband/obs/Metrics.h"
#include "hamband/rdma/Transport.h"
#include "hamband/runtime/HambandCluster.h"

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// A benchmark workload: one object type on one cluster shape.
struct WorkloadDef {
  std::string Name;
  std::string TypeName;
  hamband::rdma::TransportKind Transport = hamband::rdma::TransportKind::Shm;
  unsigned Nodes = 3;
  /// Share of updates; the update methods are drawn uniformly.
  double UpdateRatio = 0.25;
  /// Calls per episode on the workload's own transport.
  std::uint64_t Calls = 0;
  /// Calls per episode of the simulated twin (shm workloads only): the
  /// same type, nodes, mix and seed on the deterministic transport, which
  /// supplies the simulated-time metrics.
  std::uint64_t TwinCalls = 0;
  /// Node whose heartbeat is suspended once FailAtFraction of the calls
  /// were issued (sim transport only).
  std::optional<unsigned> FailNode;
  double FailAtFraction = 0.4;
  hamband::runtime::HambandConfig Cfg;
};

/// Number of method categories (MethodCategory has four enumerators).
inline constexpr unsigned NumCategories = 4;

struct EpisodeOptions {
  std::uint64_t Seed = 1;
  std::uint64_t Calls = 0;
  hamband::rdma::TransportKind Transport = hamband::rdma::TransportKind::Sim;
  /// Record the per-layer spans and counts (benchmark-side only).
  bool Trace = false;
  /// Runs on the quiesced cluster right before the correctness checks
  /// (the self-test uses it to make a replica diverge on purpose).
  std::function<void(hamband::runtime::HambandCluster &)> BeforeCheck;
};

struct EpisodeResult {
  std::uint64_t Issued = 0;
  std::uint64_t Completed = 0;
  /// True when every call completed and replicated before the cap.
  bool Finished = false;
  /// Failed correctness checks, one line each.
  std::vector<std::string> Errors;
  /// Wall time to construct and start the episode's cluster, and to run
  /// the episode on it.
  double SetupS = 0;
  double WallS = 0;
  /// Transport-clock time from the first issue until full replication.
  double DurationUs = 0;
  /// Response times on the transport clock (wall on shm, simulated on
  /// sim): exact nearest-rank p99 over all calls, and mean and p99 over
  /// updates, with the update sample count.
  double RespP99Us = 0;
  double UpdateMeanUs = 0;
  double UpdateP99Us = 0;
  std::uint64_t Updates = 0;
  /// Percentiles per MethodCategory (0 when the category is absent).
  std::array<double, NumCategories> CatP50Us{};
  std::array<double, NumCategories> CatP99Us{};
  std::uint64_t ConfCalls = 0;
  std::uint64_t ConfRejected = 0;
  /// CPU time of the driving thread over the measured loop.
  double DriverCpuNs = 0;
  /// Sim only: mean replicationBacklog() over driver slices, longest gap
  /// between coordinated-call completions after the failure point, and
  /// the simulator events executed.
  double MeanBacklog = 0;
  double FailoverUs = 0;
  std::uint64_t SimEvents = 0;
  /// Sim only: hash of every simulated outcome, for the determinism check.
  std::uint64_t SimDigest = 0;
  /// Wall time the world was paused for the final check (on sim, where
  /// the world stands still between slices, the check itself).
  double PauseNs = 0;
  /// Traced episodes only: host time in CallGenerator::next and in
  /// submit, summed over all calls.
  double GenNs = 0;
  double SubmitNs = 0;
  /// Wall-clock callOn hop latencies sampled by the driver.
  std::vector<double> CallOnUs;
  double TracedEventsPerCall = 0;
  hamband::obs::StatsSnapshot Stats;

  bool ok() const { return Finished && Errors.empty(); }
  /// Calls that count as failed: those not completed by the cap, or all
  /// of them when a correctness check failed.
  std::uint64_t failedCalls() const {
    return Errors.empty() ? Issued - Completed : Issued;
  }
};

/// The generator parameters of \p W (without a seed).
hamband::benchlib::WorkloadSpec workloadSpec(const WorkloadDef &W);

/// Runs one episode of \p W with \p Type.
EpisodeResult runEpisode(const WorkloadDef &W,
                         const hamband::ObjectType &Type,
                         const EpisodeOptions &Opts);

/// Nearest-rank quantile of \p Sorted (ascending); 0 when empty.
double sortedQuantile(const std::vector<double> &Sorted, double Q);

/// Median of \p V (sorted copy); 0 when empty.
double median(std::vector<double> V);

} // namespace perfbench

#endif // PERFBENCH_EPISODE_H
