//===- hamband/runtime/ReliableBroadcast.h - RDMA broadcast -----*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The RDMA reliable-broadcast backup slot of Section 4. Best-effort
/// broadcast on RDMA is just N-1 remote writes, but the source may crash
/// mid-way and violate agreement. So the source first stores the message
/// in a local *backup slot* that peers have read access to, performs the
/// remote writes, and clears the slot afterwards. When the failure
/// detector suspects the source, each peer remotely reads the backup slot
/// and delivers any pending message it has not received.
///
/// Slot layout: u8 kind | u8 aux | u32 epoch | u32 len | payload | canary
/// byte at end. The epoch is the stager's membership epoch; recovery
/// drops a fetched message staged in a different epoch (docs/reconfig.md).
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RUNTIME_RELIABLEBROADCAST_H
#define HAMBAND_RUNTIME_RELIABLEBROADCAST_H

#include "hamband/obs/Metrics.h"
#include "hamband/rdma/Transport.h"

#include <functional>
#include <vector>

namespace hamband {
namespace runtime {

/// Manages this node's backup slot and recovery reads of peers' slots.
class ReliableBroadcast {
public:
  /// Message kinds staged in the slot; `Aux` disambiguates the target
  /// structure (summarization group or unused). Values 1 and 2 are
  /// reserved.
  enum class Kind : std::uint8_t {
    None = 0,
    /// Payload is a flush image (encodeFlushImage): the summary images
    /// plus the free-call batch record of one flush, staged as a single
    /// unit so the whole flush is recovered atomically.
    FreeBatch = 3,
    /// Payload is a summary-delta frame (encodeSummaryDelta); Aux is the
    /// summarization group. Staged only when the corresponding *full*
    /// image outgrows the backup slot: recovery then degrades to the
    /// delta's gap-checked delivery rules instead of the idempotent
    /// full-image install (docs/deltas.md).
    SummaryDelta = 4,
  };

  /// A fetched backup message.
  struct BackupMessage {
    Kind TheKind = Kind::None;
    std::uint8_t Aux = 0;
    std::uint32_t Epoch = 0;
    std::vector<std::uint8_t> Payload;
  };

  ReliableBroadcast(rdma::Transport &Fabric, rdma::NodeId Self,
                    rdma::MemOffset BackupOff, std::uint32_t SlotBytes);

  /// Stages a message in the local backup slot (a local store -- it must
  /// happen before the remote writes are posted). \p Epoch is the
  /// stager's membership epoch (0 on fixed-membership clusters).
  void stage(Kind K, std::uint8_t Aux, const Bytes &Payload,
             std::uint32_t Epoch = 0);

  /// Clears the slot after all remote writes completed.
  void clear();

  /// Remotely reads \p Peer's backup slot (same symmetric offset) and
  /// invokes \p Done with the decoded message (Kind::None when empty).
  void fetch(rdma::NodeId Peer,
             std::function<void(BackupMessage)> Done) const;

  /// Observer invoked right after a message is staged, before any remote
  /// write is posted. The fault injector uses this window to crash the
  /// source at the exact point the backup slot exists to cover.
  void setOnStage(std::function<void()> Fn) { OnStage = std::move(Fn); }

  /// Wires broadcast metrics (bcast.stage, bcast.fetch) into \p R.
  void attachStats(obs::Registry &R);

private:
  obs::Counter *CtrStage = nullptr;
  obs::Counter *CtrFetch = nullptr;

  rdma::Transport &Fabric;
  rdma::NodeId Self;
  rdma::MemOffset BackupOff;
  std::uint32_t SlotBytes;
  std::function<void()> OnStage;
};

} // namespace runtime
} // namespace hamband

#endif // HAMBAND_RUNTIME_RELIABLEBROADCAST_H
