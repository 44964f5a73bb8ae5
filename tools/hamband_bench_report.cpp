//===- tools/hamband_bench_report.cpp - The figure driver -----------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs figures of the benchlib figure table (benchlib/Figures.h) and
// emits them as one machine-readable hamband-bench-v1 JSON report:
//
//   hamband_bench_report --out BENCH.json          # the gated sim sections
//   hamband_bench_report --smoke --out BENCH.json  # CI-sized op counts
//   hamband_bench_report --figures sim,shm --out B.json  # + shm wall-clock
//   hamband_bench_report --figures paper --out F.json    # Section 5 figures
//   hamband_bench_report --check BENCH.json        # validate a report
//   hamband_bench_report --check BENCH.json --min-batch-speedup 1.25
//   hamband_bench_report --check BENCH.json --min-shard-speedup 2.0
//   hamband_bench_report --check BENCH.json --min-delta-bytes-factor 5
//   hamband_bench_report --check BENCH.json --min-reconfig-retention 0.70
//   hamband_bench_report --compare A.json B.json --tolerance 0.05
//
// --figures takes a comma-separated list of figure names (fig8,
// fig8_batched, fig9, fig_shard, fig_bigstate, fig_reconfig, fig8_shm,
// fig8_shm_batched, fig8_reduction, fig9_buffering, fig10_sync_groups,
// fig11_mixed_schema, fig12_failure_crdts, fig13_failure_courseware,
// ablations, headline), group names (sim, shm, paper) or "all"; the
// default is "sim". Sections appear in table order. --ops replaces the op
// count of every unpinned row (default: each row's own; the gated rows
// run 6000), --smoke caps unpinned rows at 600 calls and shrinks the
// keyspace and big-state sweeps, --reps averages repetitions per row. The
// shm rows instead run a pinned five episodes each and report the median
// throughput with the episodes' min and max.
//
// Every row runs through one loop -- run, percentiles, pointToJson -- and
// a few sections post-process their rows' results:
//  - fig_shard: the keyspace scaling sweep (movie conflicting calls over
//    a large keyspace at 1/2/4/8 shards) plus a zipfian hot-key companion;
//    --min-shard-speedup gates the top-shard-count throughput against the
//    1-shard point.
//  - fig_bigstate: bytes shipped per delivered call (rdma.bytes_written)
//    with a big pre-seeded summary, full-image vs delta mode
//    (docs/deltas.md); --min-delta-bytes-factor gates the full/delta
//    ratio of the seeded types, lww-register is the ungated contrast. The
//    section needs the transport's byte counter, so an HAMBAND_OBS=OFF
//    build omits it.
//  - fig_reconfig: throughput split around an online membership
//    transition at 40% of issued ops (docs/reconfig.md);
//    --min-reconfig-retention gates the during-transition rate against
//    steady and requires the after rate to recover to 95% of the
//    capacity-adjusted steady rate.
//  - the paper figures: every point also carries the exact driver
//    percentiles, staleness and per-method means; headline adds the
//    Hamband/MSG and Hamband/Mu ratio aggregate.
// The shm points measure real threads on real memory and depend on the
// host's core count, so they are recorded for trend-watching but never
// gated on a speedup floor, and --compare only ever examines the sim fig8
// section.
//
// Latency percentiles come from the merged per-node node.resp_ns
// histograms when the observability layer is compiled in, with the
// driver's exact per-call samples as the fallback (and as a cross-check).
// --compare exits nonzero when fig8 throughput differs by more than the
// tolerance, which is how scripts/bench_regress.sh asserts that an
// HAMBAND_OBS=ON build performs within noise of an OFF build.
//
//===----------------------------------------------------------------------===//

#include "hamband/benchlib/Figures.h"
#include "hamband/obs/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace hamband;
using namespace hamband::benchlib;
namespace json = hamband::obs::json;

namespace {

struct Options {
  /// 0 = every row's own op count.
  std::uint64_t Ops = 0;
  unsigned Reps = 1;
  bool Smoke = false;
  /// Comma-separated figure names, group names or "all".
  std::string Figures = "sim";
  std::string Out;        // Empty = stdout.
  std::string CheckFile;  // --check mode.
  std::string CompareA;   // --compare mode.
  std::string CompareB;
  double Tolerance = 0.05;
  /// With --check: require fig8_batched throughput to be at least this
  /// multiple of fig8 (0 = no gate).
  double MinBatchSpeedup = 0;
  /// With --check: require the fig_shard sweep's top-shard-count
  /// throughput to be at least this multiple of its 1-shard point
  /// (0 = no gate).
  double MinShardSpeedup = 0;
  /// With --check: require every gated fig_bigstate entry's full-image
  /// bytes-per-call to be at least this multiple of its delta-mode
  /// bytes-per-call (0 = no gate).
  double MinDeltaBytesFactor = 0;
  /// With --check: require every fig_reconfig point's during-transition
  /// throughput to be at least this fraction of its steady-state
  /// throughput, and its after-transition throughput to recover to 95%
  /// of steady (0 = no gate).
  double MinReconfigRetention = 0;
};

/// One figure point: the workload result plus the percentile source.
struct PointReport {
  RunResult R;
  double P50Us = 0;
  double P99Us = 0;
  double MaxUs = 0;
  const char *Source = "driver";
};

/// Runs a row and fills the percentile fields. Prefers the runtime's own
/// histogram: it is what production deployments would export. The
/// driver's exact samples remain the fallback for HAMBAND_OBS=OFF builds
/// and for the baselines, which keep no histogram.
PointReport runRow(const FigureRow &Row) {
  PointReport P;
  P.R = runFigureRow(Row);
  if (const obs::HistogramSnapshot *H =
          P.R.ClusterStats.histogram("node.resp_ns")) {
    if (H->Count) {
      P.P50Us = static_cast<double>(H->quantile(0.50)) / 1000.0;
      P.P99Us = static_cast<double>(H->quantile(0.99)) / 1000.0;
      P.MaxUs = static_cast<double>(H->Max) / 1000.0;
      P.Source = "obs";
      return P;
    }
  }
  P.P50Us = P.R.P50ResponseUs;
  P.P99Us = P.R.P99ResponseUs;
  P.MaxUs = P.R.MaxResponseUs;
  return P;
}

json::Value num(double D) { return json::Value::makeDouble(D); }
json::Value count(std::uint64_t U) { return json::Value::makeUInt(U); }
json::Value str(const std::string &S) { return json::Value::makeString(S); }

json::Value pointToJson(const FigureRow &Row, const PointReport &P) {
  json::Value O = json::Value::makeObject();
  O.add("type", str(Row.TypeName));
  O.add("transport", str(rdma::transportKindName(Row.Options.Transport)));
  O.add("nodes", count(Row.Options.NumNodes));
  O.add("update_pct", num(Row.Workload.UpdateRatio * 100.0));
  O.add("throughput_ops_us", num(P.R.ThroughputOpsPerUs));
  O.add("mean_response_us", num(P.R.MeanResponseUs));
  O.add("p50_response_us", num(P.P50Us));
  O.add("p99_response_us", num(P.P99Us));
  O.add("max_response_us", num(P.MaxUs));
  O.add("percentile_source", str(P.Source));
  O.add("completed_ops", count(P.R.CompletedOps));
  O.add("completed", json::Value::makeBool(P.R.Completed));
  if (P.R.Episodes > 1) {
    // A median of repeated episodes: throughput_ops_us is the median.
    O.add("episodes", count(P.R.Episodes));
    O.add("throughput_min_ops_us", num(P.R.MinThroughputOpsPerUs));
    O.add("throughput_max_ops_us", num(P.R.MaxThroughputOpsPerUs));
  }
  return O;
}

/// fig8/fig8_batched/fig9 and the shm twins: the one row itself.
json::Value pointSection(const FigureRow &Row, const PointReport &P) {
  json::Value J = pointToJson(Row, P);
  if (Row.Options.Cfg.Batch.MaxCalls > 1)
    J.add("batched", json::Value::makeBool(true));
  return J;
}

/// fig_shard: the uniform sweep as points, the zipfian row as zipf.
json::Value shardSection(const Figure &F, const std::vector<PointReport> &Ps,
                         FILE *Log) {
  const FigureRow &First = F.Rows.front();
  json::Value Sweep = json::Value::makeObject();
  Sweep.add("type", str(First.TypeName));
  Sweep.add("nodes", count(First.Options.NumNodes));
  Sweep.add("objects", count(First.Workload.NumObjects));
  json::Value Points = json::Value::makeArray();
  double Shard1Tput = 0, TopTput = 0;
  unsigned TopShards = 0;
  for (std::size_t I = 0; I < F.Rows.size(); ++I) {
    const FigureRow &Row = F.Rows[I];
    json::Value PJ = pointToJson(Row, Ps[I]);
    PJ.add("shards", count(Row.Options.NumShards));
    PJ.add("objects", count(Row.Workload.NumObjects));
    PJ.add("zipf_skew", num(Row.Workload.ZipfSkew));
    if (Row.Workload.ZipfSkew > 0) {
      Sweep.add("points", std::move(Points));
      Sweep.add("zipf", std::move(PJ));
      continue;
    }
    Points.Arr.push_back(std::move(PJ));
    double Tput = Ps[I].R.ThroughputOpsPerUs;
    if (Row.Options.NumShards == 1)
      Shard1Tput = Tput;
    if (Row.Options.NumShards >= TopShards) {
      TopShards = Row.Options.NumShards;
      TopTput = Tput;
    }
  }
  if (Shard1Tput > 0)
    std::fprintf(Log, "fig_shard: %.4f ops/us at 1 shard, %.4f at %u shards "
                      "(%.2fx)\n",
                 Shard1Tput, TopTput, TopShards, TopTput / Shard1Tput);
  return Sweep;
}

/// fig_bigstate: rows pair up as (full, delta) per type; each mode point
/// adds the bytes the transport wrote per delivered call.
json::Value bigStateSection(const Figure &F,
                            const std::vector<PointReport> &Ps, FILE *Log) {
  json::Value Big = json::Value::makeObject();
  std::uint64_t Elems = 0;
  for (const FigureRow &Row : F.Rows)
    Elems = std::max(Elems, Row.SeedElements);
  Big.add("nodes", count(F.Rows.front().Options.NumNodes));
  Big.add("elements", count(Elems));
  json::Value Entries = json::Value::makeArray();
  for (std::size_t I = 0; I + 1 < F.Rows.size(); I += 2) {
    const FigureRow &Full = F.Rows[I];
    json::Value E = json::Value::makeObject();
    E.add("type", str(Full.TypeName));
    E.add("gated", json::Value::makeBool(Full.SeedElements > 0));
    E.add("seeded_elements", count(Full.SeedElements));
    double BytesPerCall[2] = {0, 0};
    for (std::size_t M = 0; M < 2; ++M) {
      const RunResult &R = Ps[I + M].R;
      std::uint64_t Bytes = R.ClusterStats.counter("rdma.bytes_written");
      if (R.CompletedOps)
        BytesPerCall[M] = static_cast<double>(Bytes) /
                          static_cast<double>(R.CompletedOps);
      json::Value PJ = pointToJson(F.Rows[I + M], Ps[I + M]);
      PJ.add("deltas", json::Value::makeBool(M == 1));
      PJ.add("bytes_written", count(Bytes));
      PJ.add("bytes_per_call", num(BytesPerCall[M]));
      E.add(M == 0 ? "full" : "delta", std::move(PJ));
    }
    double Factor =
        BytesPerCall[1] > 0 ? BytesPerCall[0] / BytesPerCall[1] : 0;
    E.add("bytes_factor", num(Factor));
    std::fprintf(Log, "fig_bigstate %s: %.0f B/call full-image, %.0f B/call "
                      "delta (%.2fx%s)\n",
                 Full.TypeName.c_str(), BytesPerCall[0], BytesPerCall[1],
                 Factor, Full.SeedElements ? "" : ", ungated contrast");
    Entries.Arr.push_back(std::move(E));
  }
  Big.add("types", std::move(Entries));
  return Big;
}

/// fig_reconfig: each point adds the phase split around the transition.
json::Value reconfigSection(const Figure &F,
                            const std::vector<PointReport> &Ps, FILE *Log) {
  const FigureRow &First = F.Rows.front();
  json::Value Rec = json::Value::makeObject();
  Rec.add("type", str(First.TypeName));
  Rec.add("nodes", count(First.Options.NumNodes));
  Rec.add("at_fraction", num(First.Options.ReconfigAtFraction));
  json::Value Points = json::Value::makeArray();
  for (std::size_t I = 0; I < F.Rows.size(); ++I) {
    const std::string &Action = F.Rows[I].Options.ReconfigAction;
    const RunResult &R = Ps[I].R;
    const unsigned Nodes = F.Rows[I].Options.NumNodes;
    const bool IsAdd = Action == "add";
    json::Value J = pointToJson(F.Rows[I], Ps[I]);
    J.add("action", str(Action));
    // Serving-node counts around the transition: the after-phase gate
    // scales its floor by the capacity change for removals.
    J.add("serving_before", count(IsAdd ? Nodes - 1 : Nodes));
    J.add("serving_after", count(IsAdd ? Nodes : Nodes - 1));
    J.add("steady_tput_ops_us", num(R.SteadyThroughputOpsPerUs));
    J.add("during_tput_ops_us", num(R.DuringThroughputOpsPerUs));
    J.add("after_tput_ops_us", num(R.AfterThroughputOpsPerUs));
    J.add("transition_us", num(R.TransitionUs));
    J.add("installed", json::Value::makeBool(R.ReconfigInstalled));
    J.add("wrong_epoch_retries", count(R.WrongEpochRetries));
    std::fprintf(Log, "fig_reconfig %s: steady %.4f, during %.4f, after "
                      "%.4f ops/us across a %.0f us transition (%llu "
                      "closed-epoch retries)\n",
                 Action.c_str(), R.SteadyThroughputOpsPerUs,
                 R.DuringThroughputOpsPerUs, R.AfterThroughputOpsPerUs,
                 R.TransitionUs,
                 static_cast<unsigned long long>(R.WrongEpochRetries));
    Points.Arr.push_back(std::move(J));
  }
  Rec.add("points", std::move(Points));
  return Rec;
}

/// A paper figure: every point with the exact driver percentiles,
/// staleness and per-method means. headline adds the mean Hamband/MSG
/// and Hamband/Mu throughput and response ratios over its (hamband, msg,
/// mu) row triples; fig11 and fig13 print their per-method panel (b).
json::Value paperSection(const Figure &F, const std::vector<PointReport> &Ps,
                         FILE *Log) {
  json::Value Sec = json::Value::makeObject();
  json::Value Points = json::Value::makeArray();
  const bool PerMethodPanel = F.Name == "fig11_mixed_schema" ||
                              F.Name == "fig13_failure_courseware";
  for (std::size_t I = 0; I < F.Rows.size(); ++I) {
    const FigureRow &Row = F.Rows[I];
    const RunResult &R = Ps[I].R;
    json::Value J = json::Value::makeObject();
    J.add("label", str(Row.Label));
    J.add("system", str(runtimeKindName(Row.Options.Kind)));
    json::Value Base = pointToJson(Row, Ps[I]);
    for (auto &[K, V] : Base.Obj)
      J.add(K, std::move(V));
    J.add("mean_update_response_us", num(R.MeanUpdateResponseUs));
    J.add("mean_query_response_us", num(R.MeanQueryResponseUs));
    J.add("exact_p50_response_us", num(R.P50ResponseUs));
    J.add("exact_p99_response_us", num(R.P99ResponseUs));
    J.add("rejected_ops", count(R.RejectedOps));
    J.add("stale_mean_calls", num(R.MeanBacklogCalls));
    J.add("stale_max_calls", num(R.MaxBacklogCalls));
    json::Value PM = json::Value::makeObject();
    for (const auto &[Method, S] : R.PerMethod)
      PM.add(Method, num(S.mean()));
    J.add("per_method_mean_us", std::move(PM));
    Points.Arr.push_back(std::move(J));
    std::fprintf(Log, "%s: %.4f ops/us, mean %.2f us (upd %.2f, qry %.2f), "
                      "p99 %.2f us%s\n",
                 Row.Label.c_str(), R.ThroughputOpsPerUs, R.MeanResponseUs,
                 R.MeanUpdateResponseUs, R.MeanQueryResponseUs,
                 R.P99ResponseUs, R.Completed ? "" : " INCOMPLETE");
    if (PerMethodPanel) {
      std::fprintf(Log, "#  per-method:");
      for (const auto &[Method, S] : R.PerMethod)
        std::fprintf(Log, " %s=%.2fus", Method.c_str(), S.mean());
      std::fprintf(Log, "\n");
    }
  }
  Sec.add("points", std::move(Points));
  if (F.Name != "headline")
    return Sec;
  // One ratio per matrix cell whose two runs both completed, averaged.
  struct Ratio {
    double Tput = 0, Resp = 0;
    unsigned Cells = 0;
    void add(const RunResult &H, const RunResult &Other) {
      if (!H.Completed || !Other.Completed ||
          Other.ThroughputOpsPerUs <= 0 || H.MeanResponseUs <= 0)
        return;
      Tput += H.ThroughputOpsPerUs / Other.ThroughputOpsPerUs;
      Resp += Other.MeanResponseUs / H.MeanResponseUs;
      ++Cells;
    }
    double tput() const { return Cells ? Tput / Cells : 0; }
    double resp() const { return Cells ? Resp / Cells : 0; }
  } VsMsg, VsMu;
  for (std::size_t I = 0; I + 2 < Ps.size(); I += 3) {
    VsMsg.add(Ps[I].R, Ps[I + 1].R);
    VsMu.add(Ps[I].R, Ps[I + 2].R);
  }
  Sec.add("tput_vs_msg", num(VsMsg.tput()));
  Sec.add("tput_vs_mu", num(VsMu.tput()));
  Sec.add("resp_vs_msg", num(VsMsg.resp()));
  Sec.add("resp_vs_mu", num(VsMu.resp()));
  Sec.add("aggregate_points", count(VsMsg.Cells));
  std::fprintf(Log, "# Headline (paper: >17x MSG, >2.7x Mu throughput; ~23x "
                    "lower response than MSG, ~= Mu)\n"
                    "# measured: %.1fx MSG and %.2fx Mu throughput; %.1fx "
                    "lower response than MSG, %.2fx lower than Mu (%u "
                    "points)\n",
               VsMsg.tput(), VsMu.tput(), VsMsg.resp(), VsMu.resp(),
               VsMsg.Cells);
  return Sec;
}

// -- --check and --compare ----------------------------------------------------

/// The report's required numeric fields per figure point.
const char *const PointFields[] = {
    "throughput_ops_us", "mean_response_us", "p50_response_us",
    "p99_response_us",   "max_response_us",
};

int checkFailed(const std::string &Msg) {
  std::fprintf(stderr, "check failed: %s\n", Msg.c_str());
  return 1;
}

/// True when \p P has field \p F as a finite number no smaller than \p Min.
bool finiteField(const json::Value &P, const char *F, double Min = 0) {
  const json::Value *V = P.find(F);
  return V && V->isNumber() && std::isfinite(V->asDouble()) &&
         V->asDouble() >= Min;
}

bool checkPointObject(const json::Value *P, const std::string &Name,
                      std::string &Err) {
  if (!P || !P->isObject()) {
    Err = Name + " missing or not an object";
    return false;
  }
  for (const char *F : PointFields)
    if (!finiteField(*P, F)) {
      Err = Name + "." + F + " missing or not a finite number";
      return false;
    }
  const json::Value *C = P->find("completed");
  if (!C || !C->isBool() || !C->B) {
    Err = Name + " run did not complete";
    return false;
  }
  return true;
}

bool loadDoc(const std::string &Path, json::Value &Doc, std::string &Err) {
  std::ifstream IS(Path);
  if (!IS) {
    Err = "cannot open " + Path;
    return false;
  }
  std::stringstream SS;
  SS << IS.rdbuf();
  if (!json::parse(SS.str(), Doc)) {
    Err = "malformed JSON in " + Path;
    return false;
  }
  const json::Value *Schema = Doc.find("schema");
  if (!Schema || !Schema->isString() || Schema->Str != "hamband-bench-v1") {
    Err = "bad or missing schema tag in " + Path;
    return false;
  }
  return true;
}

int checkMode(const Options &Opt) {
  json::Value Doc;
  std::string Err;
  if (!loadDoc(Opt.CheckFile, Doc, Err) ||
      !checkPointObject(Doc.find("fig8"), "fig8", Err) ||
      !checkPointObject(Doc.find("fig9"), "fig9", Err))
    return checkFailed(Err);
  // Every other section is validated when present (reports predating it
  // stay checkable) and required by its gate. The wall-clock shm sections
  // must be sound, but no speedup floor applies to them.
  for (const char *Fig : {"fig8_batched", "fig8_shm", "fig8_shm_batched"})
    if (Doc.find(Fig) && !checkPointObject(Doc.find(Fig), Fig, Err))
      return checkFailed(Err);
  // fig_shard: each sweep entry must be a sound figure point with a
  // positive shard count; the 1-shard baseline must be present for the
  // gate to be meaningful.
  const json::Value *ShardSweep = Doc.find("fig_shard");
  double Shard1Tput = 0, ShardTopTput = 0;
  std::uint64_t TopShards = 0;
  if (ShardSweep) {
    const json::Value *Points = ShardSweep->find("points");
    if (!Points || !Points->isArray() || Points->Arr.empty())
      return checkFailed("fig_shard.points missing or empty");
    for (const json::Value &P : Points->Arr) {
      for (const char *F : PointFields)
        if (!finiteField(P, F))
          return checkFailed(std::string("fig_shard point ") + F +
                             " missing or not a finite number");
      const json::Value *C = P.find("completed");
      const json::Value *S = P.find("shards");
      if (!C || !C->isBool() || !C->B || !S || !S->isNumber() ||
          S->asDouble() < 1)
        return checkFailed("fig_shard point incomplete or missing a "
                           "positive shard count");
      auto Shards = static_cast<std::uint64_t>(S->asDouble());
      double Tput = P.find("throughput_ops_us")->asDouble();
      if (Shards == 1)
        Shard1Tput = Tput;
      if (Shards >= TopShards) {
        TopShards = Shards;
        ShardTopTput = Tput;
      }
    }
    if (const json::Value *Z = ShardSweep->find("zipf"))
      for (const char *F : PointFields)
        if (!finiteField(*Z, F, -INFINITY))
          return checkFailed(std::string("fig_shard.zipf.") + F +
                             " missing or not a finite number");
  }
  // fig_bigstate: every entry carries a full-image point and a delta
  // point, each with a positive bytes_per_call, plus the full/delta ratio
  // as bytes_factor.
  const json::Value *BigSweep = Doc.find("fig_bigstate");
  if (BigSweep) {
    const json::Value *Entries = BigSweep->find("types");
    if (!Entries || !Entries->isArray() || Entries->Arr.empty())
      return checkFailed("fig_bigstate.types missing or empty");
    for (const json::Value &E : Entries->Arr) {
      const json::Value *TN = E.find("type");
      std::string Name = "fig_bigstate." +
                         (TN && TN->isString() ? TN->Str : std::string("?"));
      const json::Value *G = E.find("gated");
      if (!TN || !TN->isString() || !G || !G->isBool())
        return checkFailed(Name + " entry missing type or gated flag");
      for (const char *Mode : {"full", "delta"}) {
        const json::Value *P = E.find(Mode);
        if (!checkPointObject(P, Name + "." + Mode, Err))
          return checkFailed(Err);
        const json::Value *B = P->find("bytes_per_call");
        if (!B || !B->isNumber() || !std::isfinite(B->asDouble()) ||
            B->asDouble() <= 0)
          return checkFailed(Name + "." + Mode +
                             ".bytes_per_call missing or not positive");
      }
      if (!finiteField(E, "bytes_factor"))
        return checkFailed(Name + ".bytes_factor missing or not a finite "
                                  "number");
    }
  }
  // fig_reconfig: every point is a sound figure point whose transition
  // installed, with finite phase throughputs.
  const json::Value *Reconfig = Doc.find("fig_reconfig");
  if (Reconfig) {
    const json::Value *Points = Reconfig->find("points");
    if (!Points || !Points->isArray() || Points->Arr.empty())
      return checkFailed("fig_reconfig.points missing or empty");
    for (const json::Value &P : Points->Arr) {
      const json::Value *Act = P.find("action");
      std::string Name =
          "fig_reconfig." +
          (Act && Act->isString() ? Act->Str : std::string("?"));
      if (!Act || !Act->isString() ||
          (Act->Str != "add" && Act->Str != "remove"))
        return checkFailed("fig_reconfig point missing an add/remove "
                           "action");
      if (!checkPointObject(&P, Name, Err))
        return checkFailed(Err);
      for (const char *F :
           {"steady_tput_ops_us", "during_tput_ops_us", "after_tput_ops_us",
            "transition_us", "serving_before", "serving_after"})
        if (!finiteField(P, F))
          return checkFailed(Name + "." + F +
                             " missing or not a finite number");
      const json::Value *Inst = P.find("installed");
      if (!Inst || !Inst->isBool() || !Inst->B)
        return checkFailed(Name + " transition did not install");
    }
  }
  if (Opt.MinReconfigRetention > 0) {
    if (!Reconfig)
      return checkFailed("--min-reconfig-retention needs a fig_reconfig "
                         "section");
    for (const json::Value &P : Reconfig->find("points")->Arr) {
      const std::string &Act = P.find("action")->Str;
      double Steady = P.find("steady_tput_ops_us")->asDouble();
      double During = P.find("during_tput_ops_us")->asDouble();
      double After = P.find("after_tput_ops_us")->asDouble();
      double Before = P.find("serving_before")->asDouble();
      double Now = P.find("serving_after")->asDouble();
      // A removal takes serving capacity with it, so the after-phase
      // floor scales by the capacity ratio (capped at 1: an addition
      // must at least hold the steady rate, not multiply it -- per-node
      // costs grow with the replica count).
      double Capacity =
          Before > 0 ? std::min(1.0, Now / Before) : 1.0;
      double DuringR = Steady > 0 ? During / Steady : 0;
      double AfterR = Steady > 0 ? After / (Steady * Capacity) : 0;
      std::printf("fig_reconfig %s: during-transition retention %.0f%% "
                  "(%.4f / %.4f ops/us, floor %.0f%%), after %.0f%% of "
                  "the capacity-adjusted steady rate (x%.2f, floor "
                  "95%%)\n",
                  Act.c_str(), DuringR * 100.0, During, Steady,
                  Opt.MinReconfigRetention * 100.0, AfterR * 100.0,
                  Capacity);
      if (Steady <= 0 || DuringR < Opt.MinReconfigRetention ||
          AfterR < 0.95)
        return checkFailed("fig_reconfig " + Act +
                           " throughput retention below floor");
    }
  }
  if (Opt.MinDeltaBytesFactor > 0) {
    if (!BigSweep)
      return checkFailed("--min-delta-bytes-factor needs a fig_bigstate "
                         "sweep");
    for (const json::Value &E : BigSweep->find("types")->Arr) {
      const std::string &TN = E.find("type")->Str;
      double Factor = E.find("bytes_factor")->asDouble();
      bool Gated = E.find("gated")->B;
      std::printf("fig_bigstate %s: full/delta bytes-per-call factor "
                  "%.2fx (%s, floor %.2fx)\n",
                  TN.c_str(), Factor, Gated ? "gated" : "ungated contrast",
                  Opt.MinDeltaBytesFactor);
      if (Gated && Factor < Opt.MinDeltaBytesFactor)
        return checkFailed("fig_bigstate " + TN +
                           " delta bytes reduction below floor");
    }
  }
  if (Opt.MinBatchSpeedup > 0) {
    if (!Doc.find("fig8_batched"))
      return checkFailed("--min-batch-speedup needs fig8_batched");
    double Base = Doc.find("fig8")->find("throughput_ops_us")->asDouble();
    double Batched =
        Doc.find("fig8_batched")->find("throughput_ops_us")->asDouble();
    double Speedup = Base > 0 ? Batched / Base : 0;
    std::printf("fig8 batching speedup: %.2fx (batched %.4f / unbatched "
                "%.4f ops/us, floor %.2fx)\n",
                Speedup, Batched, Base, Opt.MinBatchSpeedup);
    if (Speedup < Opt.MinBatchSpeedup)
      return checkFailed("batching speedup below floor");
  }
  if (Opt.MinShardSpeedup > 0) {
    if (!ShardSweep || Shard1Tput <= 0 || TopShards < 2)
      return checkFailed("--min-shard-speedup needs a fig_shard sweep with "
                         "a 1-shard baseline and a multi-shard point");
    double Speedup = ShardTopTput / Shard1Tput;
    std::printf("fig_shard speedup: %.2fx (%llu shards %.4f / 1 shard "
                "%.4f ops/us, floor %.2fx)\n",
                Speedup, static_cast<unsigned long long>(TopShards),
                ShardTopTput, Shard1Tput, Opt.MinShardSpeedup);
    if (Speedup < Opt.MinShardSpeedup)
      return checkFailed("shard speedup below floor");
  }
  // The embedded stats snapshot, when present, must itself round-trip.
  if (const json::Value *Stats = Doc.find("stats")) {
    obs::StatsSnapshot S;
    if (!obs::StatsSnapshot::fromJson(Stats->write(), S))
      return checkFailed("embedded stats snapshot is not a valid "
                         "hamband-stats-v1 document");
  }
  std::printf("%s: ok\n", Opt.CheckFile.c_str());
  return 0;
}

int compareMode(const Options &Opt) {
  json::Value A, B;
  std::string Err;
  if (!loadDoc(Opt.CompareA, A, Err) || !loadDoc(Opt.CompareB, B, Err)) {
    std::fprintf(stderr, "compare failed: %s\n", Err.c_str());
    return 1;
  }
  const json::Value *TA = A.find("fig8");
  const json::Value *TB = B.find("fig8");
  if (!TA || !TB) {
    std::fprintf(stderr, "compare failed: fig8 section missing\n");
    return 1;
  }
  double XA = TA->find("throughput_ops_us")
                  ? TA->find("throughput_ops_us")->asDouble()
                  : 0;
  double XB = TB->find("throughput_ops_us")
                  ? TB->find("throughput_ops_us")->asDouble()
                  : 0;
  if (XA <= 0 || XB <= 0) {
    std::fprintf(stderr, "compare failed: non-positive throughput\n");
    return 1;
  }
  double Rel = std::fabs(XA - XB) / XB;
  std::printf("fig8 throughput: %s=%.4f %s=%.4f relative diff %.2f%% "
              "(tolerance %.2f%%)\n",
              Opt.CompareA.c_str(), XA, Opt.CompareB.c_str(), XB,
              Rel * 100.0, Opt.Tolerance * 100.0);
  if (Rel > Opt.Tolerance) {
    std::fprintf(stderr, "compare failed: outside tolerance\n");
    return 1;
  }
  return 0;
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--figures LIST] [--ops N] [--reps N] [--smoke]\n"
               "          [--out FILE]\n"
               "       %s --check FILE [--min-batch-speedup X]\n"
               "          [--min-shard-speedup X]\n"
               "          [--min-delta-bytes-factor X]\n"
               "          [--min-reconfig-retention X]\n"
               "       %s --compare A.json B.json [--tolerance T]\n"
               "LIST: comma-separated figure names, sim, shm, paper or all\n",
               Argv0, Argv0, Argv0);
  return 2;
}

/// Figure names, group names or "all", comma-separated.
std::vector<std::string> splitList(const std::string &List) {
  std::vector<std::string> Out;
  std::stringstream SS(List);
  for (std::string Item; std::getline(SS, Item, ',');)
    if (!Item.empty())
      Out.push_back(Item);
  return Out;
}

bool selected(const Figure &F, const std::vector<std::string> &Sel) {
  for (const std::string &S : Sel)
    if (S == "all" || S == F.Name || S == F.Group)
      return true;
  return false;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--ops" && (V = Next()))
      Opt.Ops = std::strtoull(V, nullptr, 10);
    else if (A == "--reps" && (V = Next()))
      Opt.Reps = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    else if (A == "--smoke")
      Opt.Smoke = true;
    else if (A == "--figures" && (V = Next()))
      Opt.Figures = V;
    else if (A == "--out" && (V = Next()))
      Opt.Out = V;
    else if (A == "--check" && (V = Next()))
      Opt.CheckFile = V;
    else if (A == "--tolerance" && (V = Next()))
      Opt.Tolerance = std::strtod(V, nullptr);
    else if (A == "--min-batch-speedup" && (V = Next()))
      Opt.MinBatchSpeedup = std::strtod(V, nullptr);
    else if (A == "--min-shard-speedup" && (V = Next()))
      Opt.MinShardSpeedup = std::strtod(V, nullptr);
    else if (A == "--min-delta-bytes-factor" && (V = Next()))
      Opt.MinDeltaBytesFactor = std::strtod(V, nullptr);
    else if (A == "--min-reconfig-retention" && (V = Next()))
      Opt.MinReconfigRetention = std::strtod(V, nullptr);
    else if (A == "--compare") {
      const char *VA = Next();
      const char *VB = Next();
      if (!VA || !VB)
        return usage(Argv[0]);
      Opt.CompareA = VA;
      Opt.CompareB = VB;
    } else
      return usage(Argv[0]);
  }

  if (!Opt.CheckFile.empty())
    return checkMode(Opt);
  if (!Opt.CompareA.empty())
    return compareMode(Opt);

  const std::vector<Figure> Table =
      figureTable(TableScale{Opt.Ops, Opt.Smoke, std::max(1u, Opt.Reps)});
  const std::vector<std::string> Sel = splitList(Opt.Figures);
  for (const std::string &S : Sel) {
    bool Known = S == "all";
    for (const Figure &F : Table)
      Known |= S == F.Name || S == F.Group;
    if (!Known) {
      std::fprintf(stderr, "error: unknown figure '%s'; figures:", S.c_str());
      for (const Figure &F : Table)
        std::fprintf(stderr, " %s", F.Name.c_str());
      std::fprintf(stderr, " (groups: sim, shm, paper, all)\n");
      return 2;
    }
  }
  // Progress lines go to stdout unless the report itself does.
  FILE *Log = Opt.Out.empty() ? stderr : stdout;

  json::Value Doc = json::Value::makeObject();
  Doc.add("schema", str("hamband-bench-v1"));
  Doc.add("obs_enabled", json::Value::makeBool(HAMBAND_OBS_ENABLED != 0));
  std::uint64_t GatedOps = Opt.Ops ? Opt.Ops : ReportOps;
  Doc.add("ops", count(Opt.Smoke ? std::min(GatedOps, SmokeOps) : GatedOps));
  Doc.add("reps", count(std::max(1u, Opt.Reps)));
  unsigned Incomplete = 0;
  for (const Figure &F : Table) {
    if (!selected(F, Sel))
      continue;
    // fig_bigstate reads the transport's byte counter, which an
    // HAMBAND_OBS=OFF build does not keep.
    if (!HAMBAND_OBS_ENABLED && F.Name == "fig_bigstate")
      continue;
    std::vector<PointReport> Ps;
    for (const FigureRow &Row : F.Rows) {
      Ps.push_back(runRow(Row));
      Incomplete += !Ps.back().R.Completed;
    }
    if (F.Group == "paper") {
      Doc.add(F.Name, paperSection(F, Ps, Log));
    } else if (F.Name == "fig_shard") {
      Doc.add(F.Name, shardSection(F, Ps, Log));
    } else if (F.Name == "fig_bigstate") {
      Doc.add(F.Name, bigStateSection(F, Ps, Log));
    } else if (F.Name == "fig_reconfig") {
      Doc.add(F.Name, reconfigSection(F, Ps, Log));
    } else {
      const PointReport &P = Ps.front();
      Doc.add(F.Name, pointSection(F.Rows.front(), P));
      std::fprintf(Log, "%s: %.4f ops/us, p99 %.2f us (%s)\n",
                   F.Name.c_str(), P.R.ThroughputOpsPerUs, P.P99Us,
                   P.Source);
      // Embed the fig9 run's merged snapshot so a report is
      // self-describing: readers can recompute the percentiles from the
      // raw buckets.
      json::Value Stats;
      if (F.Name == "fig9" && !P.R.ClusterStats.empty() &&
          json::parse(P.R.ClusterStats.toJson(), Stats))
        Doc.add("stats", std::move(Stats));
    }
  }

  std::string Text = Doc.write();
  Text += "\n";
  if (Opt.Out.empty()) {
    std::fputs(Text.c_str(), stdout);
  } else {
    std::ofstream OS(Opt.Out);
    OS << Text;
    if (!OS) {
      std::fprintf(stderr, "error: cannot write %s\n", Opt.Out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", Opt.Out.c_str());
  }
  if (Incomplete) {
    std::fprintf(stderr, "error: %u row(s) did not complete\n", Incomplete);
    return 1;
  }
  return 0;
}
