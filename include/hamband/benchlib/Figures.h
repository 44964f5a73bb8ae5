//===- hamband/benchlib/Figures.h - The figure table -------------*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every measured point of the repository as data: the paper's Section 5
/// figures (Figs. 8-13, the design ablations and the abstract's headline
/// aggregate) and the gated sections of the hamband-bench-v1 report
/// (fig8/fig9 and their batched and shm twins, the keyspace, big-state
/// and reconfiguration sweeps). A figure is a name plus a list of rows;
/// a row is one workload on one deployment. hamband_bench_report selects
/// figures by name or group and runs their rows through one loop.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_BENCHLIB_FIGURES_H
#define HAMBAND_BENCHLIB_FIGURES_H

#include "hamband/benchlib/Runner.h"

#include <string>
#include <vector>

namespace hamband {
namespace benchlib {

/// One point of a figure.
struct FigureRow {
  /// Unique across the table, e.g. "Fig8/counter/hamband/nodes:4/upd:25".
  std::string Label;
  /// Registered type name (core/TypeRegistry).
  std::string TypeName;
  WorkloadSpec Workload;
  /// Carries the runtime kind, node count, HambandConfig, shard count,
  /// reconfiguration action, pre-seed hook and transport.
  RunnerOptions Options;
  /// True when Workload.NumOps is part of what the row measures (fig10's
  /// op-count axis, fig_reconfig's after-phase window, fig_bigstate's
  /// bytes-per-call run, the shm points' wall-clock length): TableScale
  /// never resizes it.
  bool Pinned = false;
  /// Elements pre-seeded into every replica's summary by Options.PreSeed
  /// (fig_bigstate; 0 = none).
  std::uint64_t SeedElements = 0;
  /// Wall-clock rows: independent episodes whose median-throughput run
  /// is reported, with the spread (RunResult::Episodes). Pinned like the
  /// op count; TableScale::Reps does not apply. 0 = the averaged
  /// Options.Repetitions.
  unsigned Episodes = 0;
};

/// A named list of rows.
struct Figure {
  std::string Name;
  /// "sim": the simulated-time gated report sections (the default
  /// selection); "shm": the wall-clock shared-memory points; "paper": the
  /// Section 5 figures.
  std::string Group;
  std::vector<FigureRow> Rows;
};

/// How one driver invocation sizes the table.
struct TableScale {
  /// Op count of every unpinned row; 0 keeps each row's own default.
  std::uint64_t Ops = 0;
  /// CI size: unpinned rows cap at SmokeOps, and the keyspace and
  /// big-state sweeps shrink their object and element counts.
  bool Smoke = false;
  /// Repetitions averaged per row (fig_bigstate always runs one: its
  /// bytes-per-call divides one run's byte counter by that run's calls;
  /// the shm rows run their pinned Episodes instead).
  unsigned Reps = 1;
};

/// Op cap of unpinned rows in a smoke-sized table.
constexpr std::uint64_t SmokeOps = 600;

/// Default op count of the unpinned gated report rows.
constexpr std::uint64_t ReportOps = 6000;

/// Episodes per wall-clock shm row (FigureRow::Episodes).
constexpr unsigned ShmEpisodes = 5;

/// Builds the whole table, sized by \p Scale. Figures come in report
/// order: the gated sim sections, the shm points, then the paper figures.
std::vector<Figure> figureTable(const TableScale &Scale = {});

/// Runs one row (runWorkload on a fresh instance of its type).
RunResult runFigureRow(const FigureRow &Row);

} // namespace benchlib
} // namespace hamband

#endif // HAMBAND_BENCHLIB_FIGURES_H
