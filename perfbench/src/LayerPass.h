//===- perfbench/src/LayerPass.h - Per-layer timings ------------*- C++ -*-===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERPASS_H
#define PERFBENCH_LAYERPASS_H

#include "Episode.h"

#include <map>
#include <string>

namespace perfbench {

/// Metric name -> value.
using Metrics = std::map<std::string, double>;

/// Times each layer's public functions over \p NumCalls calls generated
/// for \p W from \p Seed and adds the figures to \p Out: wire.*, ring.*,
/// rdma.post_write_ns, rdma.write_complete_us, sim.eventq_push_pop_ns,
/// types.* and obs.*.
void runLayerPass(const WorkloadDef &W, const hamband::ObjectType &Type,
                  std::uint64_t Seed, std::size_t NumCalls, Metrics &Out);

} // namespace perfbench

#endif // PERFBENCH_LAYERPASS_H
