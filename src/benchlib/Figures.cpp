//===- benchlib/Figures.cpp - The figure table -----------------------------==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/benchlib/Figures.h"

#include "hamband/core/TypeRegistry.h"
#include "hamband/runtime/HambandCluster.h"

#include <algorithm>
#include <cmath>

using namespace hamband;
using namespace hamband::benchlib;

namespace {

/// Appends rows to figures, applying the table's scale.
class TableBuilder {
public:
  explicit TableBuilder(const TableScale &S) : S(S) {}

  /// Adds a row of \p Ops calls at \p UpdateRatio; unpinned rows take the
  /// scale's op count and smoke cap instead of \p Ops.
  FigureRow &add(Figure &F, std::string Label, std::string TypeName,
                 RuntimeKind Kind, unsigned Nodes, std::uint64_t Ops,
                 double UpdateRatio, bool Pinned = false) {
    FigureRow Row;
    Row.Label = std::move(Label);
    Row.TypeName = std::move(TypeName);
    Row.Pinned = Pinned;
    Row.Workload.NumOps = Pinned ? Ops : scaled(Ops);
    Row.Workload.UpdateRatio = UpdateRatio;
    Row.Options.Kind = Kind;
    Row.Options.NumNodes = Nodes;
    Row.Options.Repetitions = S.Reps;
    F.Rows.push_back(std::move(Row));
    return F.Rows.back();
  }

  bool smoke() const { return S.Smoke; }

private:
  std::uint64_t scaled(std::uint64_t Default) const {
    std::uint64_t N = S.Ops ? S.Ops : Default;
    return S.Smoke ? std::min(N, SmokeOps) : N;
  }

  const TableScale &S;
};

std::string pct(double UpdatePct) {
  return std::to_string(std::lround(UpdatePct));
}

/// "<Prefix>/<type>/<system>/nodes:<n>/upd:<pct>".
std::string sweepLabel(const char *Prefix, const std::string &TypeName,
                       RuntimeKind Kind, unsigned Nodes, double UpdatePct) {
  return std::string(Prefix) + "/" + TypeName + "/" + runtimeKindName(Kind) +
         "/nodes:" + std::to_string(Nodes) + "/upd:" + pct(UpdatePct);
}

constexpr RuntimeKind AllSystems[] = {RuntimeKind::Hamband, RuntimeKind::Msg,
                                      RuntimeKind::MuSmr};

// -- Gated report sections ---------------------------------------------------

/// A one-row section on the headline shape (4 nodes, 25% updates):
/// fig8 on the counter (reducible updates), fig9 on the ORSet (F-ring
/// updates), unbatched or with 16-call flushes, on either transport. The
/// shm rows run a pinned 60k calls (about 130 ms of wall clock) in
/// ShmEpisodes episodes and report the median one, so host noise does
/// not swamp them.
Figure headlinePoint(TableBuilder &B, const char *Name, const char *TypeName,
                     bool Batched, rdma::TransportKind Transport) {
  const bool OnShm = Transport == rdma::TransportKind::Shm;
  Figure F{Name, OnShm ? "shm" : "sim", {}};
  FigureRow &R =
      B.add(F, std::string(Name) + "/" + TypeName + "/nodes:4/upd:25",
            TypeName, RuntimeKind::Hamband, 4, OnShm ? 60000 : ReportOps,
            0.25, OnShm);
  R.Options.Cfg.Batch.MaxCalls = Batched ? 16 : 1;
  R.Options.Transport = Transport;
  if (OnShm)
    R.Episodes = ShmEpisodes;
  return F;
}

/// Keyspace scaling: the movie conflicting-call workload (addCustomer /
/// deleteCustomer only -- a single sync group, so the 1-shard baseline is
/// bottlenecked on one leader node) over a large keyspace at 1/2/4/8
/// shards, plus a zipfian hot-key companion at the top shard count.
Figure figShard(TableBuilder &B) {
  Figure F{"fig_shard", "sim", {}};
  const std::uint64_t Objects = B.smoke() ? 1000 : 100000;
  auto AddShards = [&](unsigned Shards, double Zipf) {
    FigureRow &R =
        B.add(F,
              "fig_shard/movie/shards:" + std::to_string(Shards) +
                  (Zipf > 0 ? "/zipf" : ""),
              "movie", RuntimeKind::Hamband, 4, ReportOps, 1.0);
    R.Workload.UpdateMethods = {0, 1}; // addCustomer, deleteCustomer.
    R.Workload.NumObjects = Objects;
    R.Workload.ZipfSkew = Zipf;
    R.Options.NumShards = Shards;
  };
  for (unsigned Shards : {1u, 2u, 4u, 8u})
    AddShards(Shards, 0.0);
  AddShards(8, 0.99);
  return F;
}

/// Delta-state propagation on a big resident state: an update-only
/// workload with full-image shipping and again with delta shipping, per
/// reducible set type pre-seeded with a large summary on every replica
/// (HambandCluster::seedReducibleState), so a full-image ship re-sends
/// the whole state. lww-register is the unseeded tiny-image contrast.
Figure figBigState(TableBuilder &B) {
  Figure F{"fig_bigstate", "sim", {}};
  const std::uint64_t Elems = B.smoke() ? 5000 : 100000;
  for (const char *TypeName : {"gset", "two-phase-set", "lww-register"}) {
    const bool Seeded = std::string(TypeName) != "lww-register";
    auto Type = makeType(TypeName);
    for (bool Deltas : {false, true}) {
      FigureRow &R =
          B.add(F,
                std::string("fig_bigstate/") + TypeName +
                    (Deltas ? "/delta" : "/full"),
                TypeName, RuntimeKind::Hamband, 4, B.smoke() ? 60 : 240, 1.0,
                /*Pinned=*/true);
      R.Workload.UpdateMethods = {Type->methodId(Seeded ? "add" : "write")};
      R.Options.Repetitions = 1;
      R.Options.Cfg.Delta.Enabled = Deltas;
      if (!Seeded)
        continue;
      R.SeedElements = Elems;
      MethodId Add = Type->methodId("add");
      unsigned Nodes = R.Options.NumNodes;
      R.Options.PreSeed = [Elems, Add, Nodes](runtime::HambandCluster &C) {
        std::vector<Value> Seed;
        Seed.reserve(Elems);
        for (std::uint64_t I = 0; I < Elems; ++I)
          Seed.push_back(static_cast<Value>(I));
        for (unsigned N = 0; N < Nodes; ++N)
          C.seedReducibleState(
              /*Group=*/0, /*Issuer=*/N,
              Call(Add, Seed, static_cast<ProcessId>(N), /*Req=*/0), Elems);
      };
    }
  }
  return F;
}

/// Online membership reconfiguration: the fig8 counter point with a
/// transition at 40% of issued ops, joining a standby ("add") or retiring
/// the last node ("remove"). Pinned: the after-phase average needs a long
/// window to amortize the pipeline-refill dip right after reopen.
Figure figReconfig(TableBuilder &B) {
  Figure F{"fig_reconfig", "sim", {}};
  for (const char *Action : {"add", "remove"})
    B.add(F, std::string("fig_reconfig/counter/") + Action, "counter",
          RuntimeKind::Hamband, 4, 24000, 0.25, /*Pinned=*/true)
        .Options.ReconfigAction = Action;
  return F;
}

// -- Paper figures (Section 5) -----------------------------------------------

/// Fig. 8: reducible methods (summaries + remote writes), the three
/// systems head to head on 4 nodes, plus node scaling of the counter.
Figure fig8Reduction(TableBuilder &B) {
  Figure F{"fig8_reduction", "paper", {}};
  const double Ratios[] = {25, 15, 5};
  auto Add = [&](const char *T, RuntimeKind K, unsigned Nodes, double Pct) {
    B.add(F, sweepLabel("Fig8", T, K, Nodes, Pct), T, K, Nodes, 30000,
          Pct / 100.0);
  };
  for (const char *T : {"counter", "lww-register", "gset"})
    for (RuntimeKind K : AllSystems)
      for (double R : Ratios)
        Add(T, K, 4, R);
  for (unsigned Nodes : {3u, 5u, 7u}) {
    for (double R : Ratios)
      Add("counter", RuntimeKind::Hamband, Nodes, R);
    Add("counter", RuntimeKind::MuSmr, Nodes, 25);
    Add("counter", RuntimeKind::Msg, Nodes, 25);
  }
  return F;
}

/// Fig. 9: irreducible conflict-free methods through the F rings.
Figure fig9Buffering(TableBuilder &B) {
  Figure F{"fig9_buffering", "paper", {}};
  for (const char *T : {"orset", "gset-buffered", "shopping-cart"})
    for (RuntimeKind K : AllSystems)
      for (double R : {25.0, 15.0, 5.0})
        B.add(F, sweepLabel("Fig9", T, K, 4, R), T, K, 4, 30000, R / 100.0);
  return F;
}

/// Fig. 10: two synchronization groups (movie) vs Mu's single leader on
/// pure-update runs of increasing size (the paper's 2M/4M/8M, x100
/// smaller). The op count is the figure's x-axis, so the rows are pinned.
Figure fig10SyncGroups(TableBuilder &B) {
  Figure F{"fig10_sync_groups", "paper", {}};
  for (std::uint64_t Ops : {20000ull, 40000ull, 80000ull})
    for (RuntimeKind K : {RuntimeKind::Hamband, RuntimeKind::MuSmr})
      B.add(F,
            std::string("Fig10/movie/") + runtimeKindName(K) +
                "/nodes:4/ops:" + std::to_string(Ops),
            "movie", K, 4, Ops, 1.0, /*Pinned=*/true);
  return F;
}

/// Fig. 11: the project-management schema mixes all three categories.
Figure fig11MixedSchema(TableBuilder &B) {
  Figure F{"fig11_mixed_schema", "paper", {}};
  for (double Pct : {50.0, 25.0, 10.0})
    for (RuntimeKind K : {RuntimeKind::Hamband, RuntimeKind::MuSmr})
      B.add(F, sweepLabel("Fig11", "project-management", K, 4, Pct),
            "project-management", K, 4, 24000, Pct / 100.0);
  return F;
}

/// Fig. 12: a follower's heartbeat stops at 40% of a conflict-free run.
Figure fig12FailureCrdts(TableBuilder &B) {
  Figure F{"fig12_failure_crdts", "paper", {}};
  for (const char *T : {"counter", "orset"})
    for (double Pct : {25.0, 15.0, 5.0})
      for (bool Failure : {false, true}) {
        FigureRow &R =
            B.add(F,
                  sweepLabel("Fig12", T, RuntimeKind::Hamband, 4, Pct) +
                      (Failure ? "/failure:1" : "/failure:0"),
                  T, RuntimeKind::Hamband, 4, 24000, Pct / 100.0);
        if (Failure) {
          R.Workload.FailNode = 3;
          R.Workload.FailAtFraction = 0.4;
        }
      }
  return F;
}

/// Fig. 13: courseware with no failure, a follower failure, and a failure
/// of sync group 0's initial leader (node 0), which forces a Mu leader
/// change.
Figure fig13FailureCourseware(TableBuilder &B) {
  Figure F{"fig13_failure_courseware", "paper", {}};
  for (const char *Scenario : {"none", "follower", "leader"}) {
    FigureRow &R = B.add(
        F, std::string("Fig13/courseware/hamband/nodes:4/fail:") + Scenario,
        "courseware", RuntimeKind::Hamband, 4, 24000, 0.25);
    if (std::string(Scenario) != "none") {
      R.Workload.FailNode = std::string(Scenario) == "leader" ? 0u : 3u;
      R.Workload.FailAtFraction = 0.4;
    }
    // Detection scaled to the shortened run the way the paper's
    // millisecond-scale timeouts relate to its runs.
    R.Options.Cfg.Heartbeat.CheckInterval = sim::micros(400);
    R.Options.Cfg.Heartbeat.SuspectAfter = 6;
  }
  return F;
}

/// Design-choice checks behind DESIGN.md (not paper figures): summaries
/// vs buffers for one object, the poll-interval sweep against staleness,
/// and responding after remote-write completions vs after the local apply.
Figure ablations(TableBuilder &B) {
  Figure F{"ablations", "paper", {}};
  auto Add = [&](std::string Label, const char *T) -> FigureRow & {
    return B.add(F, std::move(Label), T, RuntimeKind::Hamband, 4, 24000,
                 0.25);
  };
  for (const char *T : {"gset", "gset-buffered"})
    Add(std::string("Ablation/summary_vs_buffer/") + T, T);
  for (double PollUs : {0.25, 0.5, 1.0, 2.0, 4.0})
    Add("Ablation/poll_interval/orset/poll_us:" + std::to_string(PollUs),
        "orset")
        .Options.Cfg.PollInterval = sim::micros(PollUs);
  for (bool Late : {true, false})
    Add(std::string("Ablation/respond/counter/") +
            (Late ? "after_completion" : "after_local_apply"),
        "counter")
        .Options.Cfg.RespondAfterCompletion = Late;
  return F;
}

/// The abstract's headline: Hamband against MSG and Mu over the
/// conflict-free matrix (5 types x 3 update ratios x {4,7} nodes). Rows
/// come in (hamband, msg, mu) triples per matrix cell.
Figure headline(TableBuilder &B) {
  Figure F{"headline", "paper", {}};
  for (const char *T :
       {"counter", "lww-register", "gset", "orset", "shopping-cart"})
    for (double Ratio : {0.25, 0.15, 0.05})
      for (unsigned Nodes : {4u, 7u})
        for (RuntimeKind K : AllSystems)
          B.add(F, sweepLabel("Headline", T, K, Nodes, Ratio * 100.0),
                T, K, Nodes, 12000, Ratio);
  return F;
}

} // namespace

std::vector<Figure> benchlib::figureTable(const TableScale &Scale) {
  TableBuilder B(Scale);
  std::vector<Figure> Table;
  const auto Sim = rdma::TransportKind::Sim, Shm = rdma::TransportKind::Shm;
  Table.push_back(headlinePoint(B, "fig8", "counter", false, Sim));
  Table.push_back(headlinePoint(B, "fig8_batched", "counter", true, Sim));
  Table.push_back(headlinePoint(B, "fig9", "orset", false, Sim));
  Table.push_back(figShard(B));
  Table.push_back(figBigState(B));
  Table.push_back(figReconfig(B));
  Table.push_back(headlinePoint(B, "fig8_shm", "counter", false, Shm));
  Table.push_back(headlinePoint(B, "fig8_shm_batched", "counter", true, Shm));
  Table.push_back(fig8Reduction(B));
  Table.push_back(fig9Buffering(B));
  Table.push_back(fig10SyncGroups(B));
  Table.push_back(fig11MixedSchema(B));
  Table.push_back(fig12FailureCrdts(B));
  Table.push_back(fig13FailureCourseware(B));
  Table.push_back(ablations(B));
  Table.push_back(headline(B));
  return Table;
}

RunResult benchlib::runFigureRow(const FigureRow &Row) {
  auto Type = makeType(Row.TypeName);
  if (Row.Episodes == 0)
    return runWorkload(*Type, Row.Workload, Row.Options);
  std::vector<RunResult> Runs;
  for (unsigned E = 0; E < Row.Episodes; ++E)
    Runs.push_back(runOnce(*Type, Row.Workload, Row.Options,
                           Row.Workload.Seed + E * 7919));
  return medianRun(std::move(Runs));
}
