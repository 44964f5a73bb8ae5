//===- runtime/HambandNode.cpp - Hamband replica node -----------------------//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/runtime/HambandNode.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace hamband;
using namespace hamband::runtime;
using hamband::semantics::DepEntry;
using hamband::semantics::DepMap;

namespace {

/// One flush's in-flight writes and the calls they complete, shared by
/// the completions of every write the flush posts.
struct FlushTally {
  unsigned Remaining = 0;
  std::vector<PendingCallPtr> Calls;
};

/// Cap of buffered out-of-order delta frames per (group, source); frames
/// beyond it are dropped (counted) and heal via anti-entropy.
constexpr std::size_t BufferedFrameCap = 64;

/// Pads a summary image into a full slot write: u32 len | payload | ...
/// zeros ... | seq trailer | canary.
Bytes slotBytes(const Bytes &Payload, std::uint32_t SlotSize) {
  assert(Payload.size() >= 8 && "summary payload leads with its seq");
  assert(Payload.size() + 13 <= SlotSize &&
         "summary exceeds slot; raise SummarySlotBytes or shrink keyspace");
  ByteWriter W;
  W.reserve(SlotSize);
  W.u32(static_cast<std::uint32_t>(Payload.size()));
  W.bytes(Payload);
  W.zeros(SlotSize - 13 - Payload.size());
  // Seqlock-style trailer: restate the image's sequence number (the
  // payload's leading u64) just before the canary. Slot writes land in
  // increasing address order, so a reader that snapshots a torn overwrite
  // sees a NEW header with an OLD trailer and rejects the blend.
  W.bytes(Payload.data(), 8);
  W.u8(1);
  return W.take();
}

} // namespace

HambandConfig HambandConfig::tunedFor(rdma::TransportKind Kind) const {
  HambandConfig Out = *this;
  if (Kind == rdma::TransportKind::Sim)
    return Out;
  // Wall-clock floors for the shm transport. max() keeps any explicitly
  // slowed-down test configuration intact.
  auto Floor = [](sim::SimDuration &D, sim::SimDuration Min) {
    D = std::max(D, Min);
  };
  Floor(Out.PollInterval, sim::micros(50));
  Floor(Out.ConfRetryTimeout, sim::millis(2));
  Floor(Out.PermissibilityWait, sim::millis(1));
  Floor(Out.Batch.FlushInterval, sim::micros(200));
  Floor(Out.Reconfig.TickInterval, sim::micros(200));
  Floor(Out.Heartbeat.BeatInterval, sim::millis(2));
  Floor(Out.Heartbeat.CheckInterval, sim::millis(10));
  // A scheduler stall under sanitizers can easily exceed a few check
  // periods; demand a long silence before suspecting a peer.
  Out.Heartbeat.SuspectAfter = std::max(Out.Heartbeat.SuspectAfter, 30u);
  return Out;
}

HambandNode::HambandNode(rdma::Transport &Fabric, rdma::NodeId Self,
                         const ObjectType &Type, const MemoryMap &Map,
                         const HambandConfig &Cfg,
                         const std::vector<rdma::RegionKey> &ConfKeys)
    : Fabric(Fabric), Self(Self), Type(Type), Spec(Type.coordination()),
      Map(Map), Cfg(Cfg) {
  unsigned N = Fabric.numNodes();
  unsigned Groups = Spec.numSyncGroups();
  unsigned SumGroups = Spec.numSumGroups();
  assert(ConfKeys.size() == Groups && "one region key per sync group");
  assert(Cfg.Batch.MaxCalls >= 1 && "a flush carries at least one call");

  CtrCallQuery = &Stats.counter("node.calls.query");
  CtrCallReduce = &Stats.counter("node.calls.reducible");
  CtrCallFree = &Stats.counter("node.calls.free");
  CtrCallConf = &Stats.counter("node.calls.conflicting");
  CtrReductions = &Stats.counter("node.reductions");
  CtrDepStallFree = &Stats.counter("node.dep_stall.free");
  CtrDepStallConf = &Stats.counter("node.dep_stall.conf");
  CtrRecovered = &Stats.counter("bcast.recovered");
  HistRespNs = &Stats.histogram("node.resp_ns");
  GaugePendingFree = &Stats.gauge("node.pending_free");
  GaugePendingConf = &Stats.gauge("node.pending_conf");
  CtrFlush[0] = &Stats.counter("node.batch.flush.pipe");
  CtrFlush[1] = &Stats.counter("node.batch.flush.size");
  CtrFlush[2] = &Stats.counter("node.batch.flush.timeout");
  CtrFlush[3] = &Stats.counter("node.batch.flush.conf");
  HistBatchCalls = &Stats.histogram("node.batch.calls");
  HistBatchBytes = &Stats.histogram("node.batch.bytes");
  CtrDeltaOut = &Stats.counter("node.delta.out");
  CtrDeltaIn = &Stats.counter("node.delta.in");
  CtrDeltaDup = &Stats.counter("node.delta.dup");
  CtrDeltaGap = &Stats.counter("node.delta.gap");
  CtrDeltaDropped = &Stats.counter("node.delta.dropped");
  CtrDeltaFullOut = &Stats.counter("node.delta.full_out");
  CtrDeltaFullIn = &Stats.counter("node.delta.full_in");
  CtrSlotOverflow = &Stats.counter("node.summary.slot_overflow");
  CtrOversizeReject = &Stats.counter("node.summary.oversize_reject");
  CtrStageSkipped = &Stats.counter("node.delta.stage_skipped");
  CtrWrongEpochReject = &Stats.counter("reconfig.wrong_epoch_reject");
  CtrCrossEpochDrop = &Stats.counter("reconfig.cross_epoch_drop");
  CtrCrossEpochApply = &Stats.counter("reconfig.cross_epoch_apply");
  CtrEpochInstall = &Stats.counter("reconfig.installs");

  // Membership-reconfiguration state. With the feature off everything
  // stays at its identity value (epoch 0, empty mask, unprotected key)
  // and no code path below behaves differently.
  if (Cfg.Reconfig.Enabled) {
    DataKey = Cfg.Reconfig.InitialDataKey;
    if (!Cfg.Reconfig.InitialActive.empty()) {
      assert(Cfg.Reconfig.InitialActive.size() == N &&
             "one InitialActive flag per provisioned node");
      Active = Cfg.Reconfig.InitialActive;
    }
    // A provisioned standby starts with its epoch closed: it rejects
    // client updates until a transition adds it to the membership.
    EpochClosed = !activeNode(Self);
  }

  Stored = Type.initialState();
  Applied.assign(N, std::vector<std::uint64_t>(Type.numMethods(), 0));
  GroupMethods.resize(SumGroups);
  for (MethodId U = 0; U < Type.numMethods(); ++U)
    if (Spec.isUpdate(U) && Spec.sumGroup(U))
      GroupMethods[*Spec.sumGroup(U)].push_back(U);
  Summaries.resize(SumGroups);
  for (auto &Rows : Summaries)
    Rows.resize(N);
  Outbound.resize(SumGroups);
  FreePending.resize(N);
  FreeSeqNext.assign(N, 0);
  ConfPending.resize(Groups);
  ConfReceivedContig.assign(Groups, 0);
  ConfAppliedIdx.assign(Groups, 0);
  ConfSeen.resize(Groups);
  LeaderSpeculative.resize(Groups);
  LeaderUncommitted.resize(Groups);
  LeaderQueue.resize(Groups);
  ConfApplyLog.resize(Groups);
  FreeApplyLog.resize(N);

  FreeReaders.resize(N);
  FreeWriters.resize(N);
  MailReaders.resize(N);
  MailWriters.resize(N);
  for (rdma::NodeId J = 0; J < N; ++J) {
    if (J == Self)
      continue;
    FreeReaders[J] = std::make_unique<RingReader>(
        Fabric, Self, J, Map.freeRingData(J), Map.freeRingFeedback(Self),
        Map.freeGeom(), rdma::Transport::LanePoller);
    FreeWriters[J] = std::make_unique<RingWriter>(
        Fabric, Self, J, Map.freeRingData(Self), Map.freeRingFeedback(J),
        Map.freeGeom(), DataKey, rdma::Transport::LaneClient);
    MailReaders[J] = std::make_unique<RingReader>(
        Fabric, Self, J, Map.mailRingData(J), Map.mailRingFeedback(Self),
        Map.mailGeom(), rdma::Transport::LanePoller);
    MailWriters[J] = std::make_unique<RingWriter>(
        Fabric, Self, J, Map.mailRingData(Self), Map.mailRingFeedback(J),
        Map.mailGeom(), rdma::UnprotectedRegion, rdma::Transport::LaneClient);
    FreeReaders[J]->attachStats(Stats);
    FreeWriters[J]->attachStats(Stats);
    MailReaders[J]->attachStats(Stats);
    MailWriters[J]->attachStats(Stats);
  }

  ConfReaders.resize(Groups);
  Consensus.resize(Groups);
  for (unsigned G = 0; G < Groups; ++G) {
    // The group's home leader, skipping initially inactive nodes (all
    // nodes share the config, so every replica picks the same one).
    rdma::NodeId InitialLeader = (G + Cfg.LeaderOffset) % N;
    for (unsigned S = 0; S < N; ++S) {
      rdma::NodeId Cand = (G + Cfg.LeaderOffset + S) % N;
      if (activeNode(Cand)) {
        InitialLeader = Cand;
        break;
      }
    }
    ConfReaders[G] = std::make_unique<RingReader>(
        Fabric, Self, InitialLeader, Map.confRingData(G),
        Map.confRingFeedback(G, Self), Map.confGeom(),
        rdma::Transport::LanePoller);
    MuConsensus::Hooks Hooks;
    Hooks.ReceivedCount = [this, G]() { return ConfReceivedContig[G]; };
    Hooks.DeliverEntry = [this, G](std::uint64_t Idx,
                                   std::vector<std::uint8_t> Payload) {
      WireCall WC;
      if (!decodeCall(Spec, this->Fabric.numNodes(), Payload.data(),
                      Payload.size(), WC))
        return;
      // Adopted entries count as seen so a client retry of an already
      // committed request is answered without re-appending it.
      ConfSeen[G].insert(WC.TheCall.Req);
      ConfPending[G].emplace(Idx, std::move(WC));
      bumpConfContig(G);
    };
    Hooks.ReadLocalEntry = [this, G](std::uint64_t Idx,
                                     std::vector<std::uint8_t> &Out) {
      return ConfReaders[G]->readCellIgnoringCanary(Idx, Out);
    };
    Hooks.LeaderChanged = [this, G, Self](rdma::NodeId NewLeader) {
      ConfReaders[G]->setWriter(NewLeader);
      ConfReaders[G]->setHead(ConfReceivedContig[G]);
      if (NewLeader != Self)
        ConfReaders[G]->forceFeedback();
      // Stale speculative entries belong to the deposed leadership; the
      // permissibility window restarts from the applied state.
      if (NewLeader != Self)
        LeaderSpeculative[G].clear();
    };
    Hooks.IsSuspected = [this](rdma::NodeId Peer) {
      return Detector->isSuspected(Peer);
    };
    ConfReaders[G]->attachStats(Stats);
    Consensus[G] = std::make_unique<MuConsensus>(
        Fabric, Self, G, InitialLeader, Map, ConfKeys[G], std::move(Hooks),
        Active);
    Consensus[G]->attachStats(Stats);
    Consensus[G]->installInitialPermissions();
  }

  Detector = std::make_unique<HeartbeatDetector>(Fabric, Self,
                                                 Map.heartbeat(),
                                                 Cfg.Heartbeat);
  Detector->onSuspect([this](rdma::NodeId Peer) { onPeerSuspected(Peer); });
  // Monitor only in-service peers (and nobody while we are a standby);
  // installMembership re-enables monitoring when the active set changes.
  if (!Active.empty())
    for (rdma::NodeId P = 0; P < N; ++P)
      if (P != Self)
        Detector->setMonitored(P, activeNode(Self) && activeNode(P));
  Broadcast = std::make_unique<ReliableBroadcast>(
      Fabric, Self, Map.backupSlot(), Cfg.BackupSlotBytes);
  Broadcast->attachStats(Stats);

  const rdma::NetworkModel &M = Fabric.model();
  unsigned Checks = (N - 1) * 2         // free + mail rings
                    + SumGroups * (N - 1) // summary slots
                    + Groups * 2;         // conf rings + consensus polls
  PollBaseCost = M.PollCpu * std::max(1u, Checks);
}

HambandNode::~HambandNode() = default;

void HambandNode::start() {
  assert(!Started && "start() called twice");
  Started = true;
  Detector->start();
  schedulePoll();
  // Periodic scan for redirected conflicting calls that lost their leader.
  if (Spec.numSyncGroups() > 0)
    scheduleConfTick();
}

void HambandNode::scheduleConfTick() {
  Fabric.runAfter(Self, Cfg.ConfRetryTimeout, [this]() {
    checkConfTimeouts();
    scheduleConfTick();
  });
}

const ObjectState &HambandNode::visibleState() {
  if (!VisibleDirty && VisibleCache)
    return *VisibleCache;
  VisibleCache = Stored->clone();
  for (const auto &Rows : Summaries)
    for (const SummaryRow &Row : Rows)
      if (Row.Image)
        Type.apply(*VisibleCache, *Row.Image);
  VisibleDirty = false;
  return *VisibleCache;
}

void HambandNode::applyToStored(const Call &C) {
  Type.apply(*Stored, C);
  // The retained irreducible-call log: everything folded into the stored
  // state, in apply order. It is what a joiner replays, since irreducible
  // calls have no summary image to transfer (docs/reconfig.md).
  if (Cfg.Reconfig.Enabled)
    ReconfigLog.push_back(encodeLoggedCall(C));
  // Buffered and summarized calls commute (summaries are conflict-free),
  // so the visible cache can be maintained incrementally.
  if (VisibleCache && !VisibleDirty)
    Type.apply(*VisibleCache, C);
}

DepMap HambandNode::projectDeps(MethodId U) const {
  DepMap D;
  D.reserve(Fabric.numNodes() * Spec.dependencies(U).size());
  for (MethodId Dep : Spec.dependencies(U))
    for (ProcessId Q = 0; Q < Fabric.numNodes(); ++Q)
      if (std::uint64_t Cnt = Applied[Q][Dep])
        D.push_back(DepEntry{Q, Dep, Cnt});
  return D;
}

bool HambandNode::depsSatisfied(const DepMap &D) const {
  for (const DepEntry &E : D)
    if (Applied[E.P][E.U] < E.Count)
      return false;
  return true;
}

rdma::NodeId HambandNode::knownLeader(unsigned Group) const {
  assert(Group < Consensus.size());
  return Consensus[Group]->currentLeader();
}

std::size_t HambandNode::pendingFreeTotal() const {
  std::size_t N = 0;
  for (const auto &Q : FreePending)
    N += Q.size();
  return N;
}

std::size_t HambandNode::pendingConfTotal() const {
  std::size_t N = 0;
  for (const auto &M : ConfPending)
    N += M.size();
  return N;
}

std::size_t HambandNode::leaderQueueTotal() const {
  std::size_t N = 0;
  for (const auto &Q : LeaderQueue)
    N += Q.size();
  return N;
}

bool HambandNode::idle() const {
  if (BatchedPending != 0)
    return false;
  for (const auto &Q : FreePending)
    if (!Q.empty())
      return false;
  for (const auto &M : ConfPending)
    if (!M.empty())
      return false;
  for (const auto &Q : LeaderQueue)
    if (!Q.empty())
      return false;
  // Out-of-order delta frames are undelivered payload; a partially
  // assembled full image is not (its remaining chunks are still in
  // flight and will arrive through the rings).
  for (const auto &Rows : Summaries)
    for (const SummaryRow &Row : Rows)
      if (!Row.Buffered.empty())
        return false;
  return AwaitingResponse.empty();
}

std::uint64_t HambandNode::stateDigest() {
  std::uint64_t H = 0x5bd1e9955bd1e995ull ^ Self;
  auto Mix = [&H](std::uint64_t V) {
    H ^= V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
  };
  // Object state via its canonical rendering (types keep ordered
  // containers, so str() is stable across executions).
  const std::string S = visibleState().str();
  std::uint64_t SH = 1469598103934665603ull; // FNV-1a
  for (char Ch : S) {
    SH ^= static_cast<unsigned char>(Ch);
    SH *= 1099511628211ull;
  }
  Mix(SH);
  for (const auto &Row : Applied)
    for (std::uint64_t V : Row)
      Mix(V);
  for (std::uint64_t V : ConfReceivedContig)
    Mix(V);
  for (std::uint64_t V : ConfAppliedIdx)
    Mix(V);
  for (std::uint64_t V : FreeSeqNext)
    Mix(V);
  Mix(BcastSeqOut);
  for (const auto &Rows : Summaries)
    for (const SummaryRow &Row : Rows) {
      Mix(Row.Seq);
      Mix(Row.Buffered.size());
      Mix(Row.AssemblySeq + Row.PartsHave);
    }
  for (const GroupOutbound &Out : Outbound)
    Mix(Out.Calls);
  for (const auto &R : FreeReaders)
    Mix(R ? R->head() : 0);
  for (const auto &W : FreeWriters)
    Mix(W ? W->tail() : 0);
  for (const auto &R : ConfReaders)
    Mix(R ? R->head() : 0);
  for (const auto &R : MailReaders)
    Mix(R ? R->head() : 0);
  for (const auto &W : MailWriters)
    Mix(W ? W->tail() : 0);
  for (const auto &Q : FreePending)
    Mix(Q.size());
  for (const auto &M : ConfPending)
    Mix(M.size());
  for (const auto &Q : LeaderQueue)
    Mix(Q.size());
  for (const auto &Q : LeaderSpeculative)
    Mix(Q.size());
  Mix(AwaitingResponse.size());
  for (unsigned G = 0; G < Consensus.size(); ++G)
    Mix(knownLeader(G));
  Mix(OutOfService ? 1 : 0);
  Mix(BatchedPending);
  Mix(FreeBatchBytes);
  Mix(FlushesInFlight);
  return H;
}

// -- Request paths ---------------------------------------------------------

void HambandNode::submit(PendingCallPtr P) {
  if (OutOfService) {
    // The driver redirects around failed nodes; reject stragglers.
    finish(*P, false, 0);
    return;
  }
  if (EpochClosed &&
      Spec.category(P->TheCall.Method) != MethodCategory::Query) {
    // The epoch is closed for a membership transition: queries keep
    // flowing, updates bounce with the retry-contract sentinel (the
    // client resubmits after the new epoch opens).
    CtrWrongEpochReject->add();
    finish(*P, false, WrongEpochValue);
    return;
  }
#if HAMBAND_OBS_ENABLED
  // The submit→completion latency in simulated time (node.resp_ns); the
  // clock read is compiled out in HAMBAND_OBS=OFF builds.
  P->SubmittedAt = Fabric.now();
#endif
  switch (Spec.category(P->TheCall.Method)) {
  case MethodCategory::Query:
    CtrCallQuery->add();
    handleQuery(std::move(P));
    return;
  case MethodCategory::Reducible:
    CtrCallReduce->add();
    handleReduce(std::move(P));
    return;
  case MethodCategory::IrreducibleFree:
    CtrCallFree->add();
    handleFree(std::move(P));
    return;
  case MethodCategory::Conflicting:
    CtrCallConf->add();
    handleConf(std::move(P));
    return;
  }
}

void HambandNode::complete(PendingCallPtr P, bool Ok, Value Result) {
#if HAMBAND_OBS_ENABLED
  HistRespNs->record(Fabric.now() - P->SubmittedAt);
#endif
  finish(*P, Ok, Result);
}

void HambandNode::finish(PendingCall &P, bool Ok, Value Result) {
  if (P.Counts) {
    if (P.IsUpdate)
      P.Counts->Updates.fetch_sub(1, std::memory_order_acq_rel);
    P.Counts->Calls.fetch_sub(1, std::memory_order_acq_rel);
  }
  if (P.Done)
    P.Done(Ok, Result);
}

void HambandNode::handleQuery(PendingCallPtr P) {
  const rdma::NetworkModel &M = Fabric.model();
  unsigned NumSummaries = 0;
  for (const auto &Rows : Summaries)
    for (const SummaryRow &Row : Rows)
      if (Row.Image)
        ++NumSummaries;
  sim::SimDuration Cost = M.QueryCpu + NumSummaries * M.ApplySummaryCpu;
  Fabric.runOnCpu(
      Self, Cost,
      [this, P = std::move(P)]() mutable {
        Value V = Type.query(visibleState(), P->TheCall);
        complete(std::move(P), true, V);
      },
      rdma::Transport::LaneClient);
}

void HambandNode::handleReduce(PendingCallPtr P) {
  const rdma::NetworkModel &M = Fabric.model();
  // Unbatched calls (MaxCalls = 1) serialize inside their own CPU task;
  // batches defer that work to the flush (one ParseCpu per flush).
  sim::SimDuration Cost =
      Cfg.Batch.MaxCalls > 1 ? M.ApplyCpu : M.ApplyCpu + M.ParseCpu;
  Fabric.runOnCpu(
      Self, Cost,
      [this, P = std::move(P)]() mutable {
        Call Eff = Type.prepare(visibleState(), P->TheCall);
        if (!Type.permissible(visibleState(), Eff)) {
          complete(std::move(P), false, 0);
          return;
        }
        unsigned G = *Spec.sumGroup(Eff.Method);
        SummaryRow &OwnRow = Summaries[G][Self];
        std::optional<Call> &Own = OwnRow.Image;
        // The fold of the own summary and this call; the first call of a
        // group is its own summary.
        Call Folded;
        if (Own) {
          bool Ok = Type.summarize(*Own, Eff, Folded);
          assert(Ok && "summarization group not closed");
          (void)Ok;
        }
        // Shippability gate BEFORE any replicated-state mutation: if the
        // grown image can neither fit the summary slot nor be chunked
        // over the F-rings, folding this call would wedge every future
        // ship of the group. Reject with no side effects.
        if (Fabric.numNodes() > 1 &&
            !fullImageShippable(Own ? Folded : Eff, groupMethods(G).size())) {
          CtrOversizeReject->add();
          complete(std::move(P), false, 0);
          return;
        }
        if (Own) {
          CtrReductions->add();
          *Own = std::move(Folded);
        } else {
          Own = Eff;
        }
        ++OwnRow.Seq;
        Applied[Self][Eff.Method] += 1;
        ++NumLocalUpdates;
        // The fold appends exactly the prepared call, and reducible calls
        // are conflict-free (they S-commute with everything a rebuild
        // applies after them), so the visible cache can absorb the call
        // incrementally -- a rebuild is O(summary size), ruinous for
        // big-state workloads.
        if (VisibleCache && !VisibleDirty)
          Type.apply(*VisibleCache, Eff);
        else
          VisibleDirty = true;

        // The call is already folded into the own summary; the flush
        // ships one image covering every fold since the last one.
        if (activePeerCount() == 0) {
          complete(std::move(P), true, 0);
          return;
        }
        GroupOutbound &Out = Outbound[G];
        if (Cfg.Delta.Enabled) {
          // The per-flush delta folds alongside the full summary.
          if (Out.Delta) {
            Call D;
            bool Ok = Type.summarize(*Out.Delta, Eff, D);
            assert(Ok && "summarization group not closed");
            (void)Ok;
            Out.Delta = std::move(D);
          } else {
            Out.Delta = std::move(Eff);
          }
        }
        ++Out.Calls;
        if (Cfg.RespondAfterCompletion)
          Out.Done.push_back(std::move(P));
        else
          complete(std::move(P), true, 0);
        noteBatchedCall();
      },
      rdma::Transport::LaneClient);
}

void HambandNode::handleFree(PendingCallPtr P) {
  const rdma::NetworkModel &M = Fabric.model();
  Fabric.runOnCpu(
      Self, 2 * M.ApplyCpu + M.ParseCpu,
      [this, P = std::move(P)]() mutable {
        WireCall WC;
        WC.TheCall = Type.prepare(visibleState(), P->TheCall);
        const Call &Eff = WC.TheCall;
        if (!Type.permissible(visibleState(), Eff)) {
          complete(std::move(P), false, 0);
          return;
        }
        applyToStored(Eff);
        Applied[Self][Eff.Method] += 1;
        if (Cfg.RecordApplyLog)
          FreeApplyLog[Self].push_back(Eff.Req);
        ++NumLocalUpdates;

        WC.Deps = projectDeps(Eff.Method);
        WC.BcastSeq = BcastSeqOut++;
        WC.Epoch = CurrentEpoch;
        Bytes Encoded = encodeCall(Spec, Fabric.numNodes(), WC);

        if (activePeerCount() == 0) {
          complete(std::move(P), true, 0);
          return;
        }
        // Pre-flush when this call would overflow the batch record cap,
        // so every batch of two or more calls fits one ring record and
        // the backup slot.
        std::size_t Framed = Encoded.size() + 4; // u32 length prefix
        if (!FreeBatch.empty() &&
            4 + FreeBatchBytes + Framed > freeBatchCapBytes())
          flushBatches(FlushCause::Size);
        if (Cfg.RespondAfterCompletion)
          FreeBatchDone.push_back(std::move(P));
        else
          complete(std::move(P), true, 0);
        FreeBatchBytes += Framed;
        FreeBatch.push_back(std::move(Encoded));
        noteBatchedCall();
      },
      rdma::Transport::LaneClient);
}

Bytes HambandNode::encodeConfRequest(const Call &C) const {
  MailMsg Msg;
  Msg.Kind = MailKind::ConfRequest;
  Msg.Origin = Self;
  Msg.ReqId = C.Req;
  Msg.Epoch = CurrentEpoch;
  Msg.TheCall = C;
  return encodeMail(Msg);
}

void HambandNode::mailTo(rdma::NodeId Peer, Bytes Record) {
  MailWriters[Peer]->appendOrQueue(Record, nullptr, Cfg.PollInterval);
}

void HambandNode::handleConf(PendingCallPtr P) {
  unsigned G = *Spec.syncGroup(P->TheCall.Method);
  const rdma::NetworkModel &M = Fabric.model();
  rdma::NodeId Leader = Consensus[G]->currentLeader();
  if (Leader == Self) {
    Fabric.runOnCpu(
        Self, M.ParseCpu + M.ApplyCpu,
        [this, G, P = std::move(P)]() mutable {
          // A conflicting call flushes the batch eagerly so the calls
          // issued before it are ordered before it, as when unbatched.
          flushOutgoing();
          leaderProcessConf(G, Self, std::move(P));
        },
        rdma::Transport::LaneClient);
    return;
  }
  // Redirect through the single-writer mailbox ring on the leader.
  Bytes Request = encodeConfRequest(P->TheCall);
  RequestId ReqId = P->TheCall.Req;
  PendingConfRequest Req;
  Req.Call = std::move(P);
  Req.Group = G;
  Req.SentAt = Fabric.now();
  Req.SentTo = Leader;
  AwaitingResponse.emplace(ReqId, std::move(Req));
  Fabric.runOnCpu(
      Self, M.ParseCpu,
      [this, Leader, Request = std::move(Request)]() mutable {
        // Eager flush: the batched calls' ring/slot writes post before
        // the redirect mail on the same lane, preserving the unbatched
        // arrival order at the leader.
        flushOutgoing();
        mailTo(Leader, std::move(Request));
      },
      rdma::Transport::LaneClient);
}

void HambandNode::leaderProcessConf(unsigned G, ProcessId Origin,
                                    PendingCallPtr P,
                                    sim::SimTime WaitDeadline) {
  const RequestId ReqId = P->TheCall.Req;
  if (Consensus[G]->currentLeader() != Self) {
    // We are not the leader (any more): a local call is redirected by
    // us, a forwarded one is told to retry.
    if (Origin == Self)
      handleConf(std::move(P));
    else
      respondConf(Origin, ReqId, ConfOutcome::Retry, nullptr);
    return;
  }
  if (ConfSeen[G].count(ReqId)) {
    respondConf(Origin, ReqId, ConfOutcome::Committed, std::move(P));
    return;
  }
  // Elected but still catching up, or a follower ring is momentarily
  // full: queue and retry from the poller.
  if (!Consensus[G]->isLeader() || !Consensus[G]->canAppend()) {
    PendingConfRequest Req;
    Req.Call = std::move(P);
    Req.Group = G;
    Req.SentAt = Fabric.now();
    Req.SentTo = Origin; // Reused as the origin for queued requests.
    LeaderQueue[G].push_back(std::move(Req));
    return;
  }

  // Speculative permissibility: the call must keep the invariant after
  // every already-appended (but not yet applied) call of this group.
  WireCall WC;
  WC.TheCall = Type.prepare(visibleState(), P->TheCall);
  if (!Type.invariantAfter(visibleState(), LeaderSpeculative[G],
                           WC.TheCall)) {
    // Not (yet) permissible. A dependent call may become permissible once
    // its dependencies are delivered (e.g. worksOn waiting for its
    // addProject), so hold it briefly before rejecting -- this wait is
    // what makes dependent methods slower in Figure 11(b).
    sim::SimTime Now = Fabric.now();
    if (WaitDeadline == 0)
      WaitDeadline = Now + Cfg.PermissibilityWait;
    if (Now >= WaitDeadline) {
      // Still impermissible after the grace period: terminal rejection.
      respondConf(Origin, ReqId, ConfOutcome::Rejected, std::move(P));
      return;
    }
    PendingConfRequest Req;
    Req.Call = std::move(P);
    Req.Group = G;
    Req.SentAt = Now;
    Req.SentTo = Origin;
    Req.WaitDeadline = WaitDeadline;
    LeaderQueue[G].push_back(std::move(Req));
    return;
  }

  // The leader becomes the issuing process of the ordered call (the
  // request id keeps end-to-end identity for deduplication).
  WC.TheCall.Issuer = Self;
  WC.Deps = projectDeps(WC.TheCall.Method);
  WC.BcastSeq = Consensus[G]->nextIndex();
  WC.Epoch = CurrentEpoch;
  Bytes Entry = encodeCall(this->Spec, Fabric.numNodes(), WC);

  std::uint64_t EpochAtAppend = Consensus[G]->epoch();
  LeaderSpeculative[G].push_back(WC.TheCall);
  // The entry waits under a token of its own until the commit moves its
  // map node into ConfPending; the closure keeps only the token and the
  // local call (null for a forwarded one).
  std::uint64_t Token = NextAppendToken++;
  LeaderUncommitted[G].emplace(Token, std::move(WC));
  PendingCallPtr Local = Origin == Self ? std::move(P) : nullptr;
  bool Posted = Consensus[G]->leaderAppend(
      Entry, [this, G, Origin, Token, EpochAtAppend,
              Local = std::move(Local)](bool Committed) mutable {
        auto Appended = LeaderUncommitted[G].extract(Token);
        const WireCall &Ordered = Appended.mapped();
        RequestId ReqId = Ordered.TheCall.Req;
        // A commit that lands after this node was deposed must not enter
        // the log copy: the new leader's adoption decided the entry's
        // fate. Answer "retry"; the dedup set at the new leader resolves
        // whether the entry survived.
        if (!Committed || Consensus[G]->epoch() != EpochAtAppend) {
          respondConf(Origin, ReqId, ConfOutcome::Retry, std::move(Local));
          return;
        }
        Appended.key() = Ordered.BcastSeq; // The log index.
        ConfPending[G].insert(std::move(Appended));
        bumpConfContig(G);
        respondConf(Origin, ReqId, ConfOutcome::Committed, std::move(Local));
      });
  assert(Posted && "canAppend() was checked above");
  (void)Posted;
  ConfSeen[G].insert(ReqId);
  // Sequencing an entry occupies the leader beyond the raw verb posts.
  Fabric.chargeCpu(Self, Fabric.model().ConsensusEntryCpu,
                   rdma::Transport::LaneClient);
}

void HambandNode::retryLeaderQueue(unsigned G) {
  if (LeaderQueue[G].empty())
    return;
  if (Consensus[G]->currentLeader() != Self) {
    // Deposed: bounce every queued request back so origins retry against
    // the new leader; local calls are re-routed by handleConf.
    std::deque<PendingConfRequest> Orphans;
    Orphans.swap(LeaderQueue[G]);
    for (PendingConfRequest &Req : Orphans) {
      if (Req.SentTo == Self)
        handleConf(std::move(Req.Call));
      else
        respondConf(Req.SentTo, Req.Call->TheCall.Req, ConfOutcome::Retry,
                    nullptr);
    }
    return;
  }
  // One pass over a snapshot per poll round; entries that still cannot
  // proceed re-queue themselves (with their original wait deadline).
  std::deque<PendingConfRequest> Snapshot;
  Snapshot.swap(LeaderQueue[G]);
  sim::SimTime Now = Fabric.now();
  for (PendingConfRequest &Req : Snapshot) {
    // Permissibility waiters are re-evaluated every few microseconds, not
    // every poll tick.
    if (Req.WaitDeadline != 0 && Now < Req.WaitDeadline &&
        Now - Req.SentAt < sim::micros(5)) {
      LeaderQueue[G].push_back(std::move(Req));
      continue;
    }
    Req.SentAt = Now;
    leaderProcessConf(G, Req.SentTo, std::move(Req.Call), Req.WaitDeadline);
  }
}

void HambandNode::respondConf(ProcessId Origin, RequestId ReqId,
                              ConfOutcome Outcome, PendingCallPtr Local) {
  if (Origin == Self) {
    // A local Retry is handled by the caller (it re-routes the call); a
    // completion here is terminal.
    if (Local)
      complete(std::move(Local), Outcome == ConfOutcome::Committed, 0);
    return;
  }
  MailMsg Msg;
  Msg.Kind = MailKind::ConfResponse;
  Msg.Origin = Self;
  Msg.ReqId = ReqId;
  Msg.Ok = static_cast<std::uint8_t>(Outcome);
  Msg.Epoch = CurrentEpoch;
  mailTo(Origin, encodeMail(Msg));
}

void HambandNode::checkConfTimeouts() {
  if (AwaitingResponse.empty())
    return;
  sim::SimTime Now = Fabric.now();
  std::vector<RequestId> TakeOver;
  for (auto &[ReqId, Req] : AwaitingResponse) {
    if (Now - Req.SentAt < Cfg.ConfRetryTimeout)
      continue;
    rdma::NodeId Leader = Consensus[Req.Group]->currentLeader();
    Req.SentAt = Now;
    Req.SentTo = Leader;
    if (Leader == Self) {
      TakeOver.push_back(ReqId); // We became the leader meanwhile.
      continue;
    }
    mailTo(Leader, encodeConfRequest(Req.Call->TheCall));
  }
  for (RequestId Id : TakeOver) {
    auto It = AwaitingResponse.find(Id);
    if (It == AwaitingResponse.end())
      continue;
    PendingCallPtr P = std::move(It->second.Call);
    unsigned G = It->second.Group;
    AwaitingResponse.erase(It);
    leaderProcessConf(G, Self, std::move(P));
  }
}

// -- Poller -----------------------------------------------------------------

void HambandNode::schedulePoll() {
  // Every PollInterval, or as soon as a peer's write lands where the
  // backend can tell (shm).
  Fabric.runAfterOrWrite(Self, Cfg.PollInterval, [this]() {
    Fabric.runOnCpu(
        Self, PollBaseCost, [this]() { pollOnce(); },
        rdma::Transport::LanePoller);
  });
}

void HambandNode::pollOnce() {
  const rdma::NetworkModel &M = Fabric.model();
  unsigned Parsed = 0;
  unsigned AppliedN = 0;
  Parsed += pollFreeRings();
  Parsed += pollSummaries();
  Parsed += pollConfRings();
  Parsed += pollMailboxes();
  AppliedN += applyPendingFree();
  AppliedN += applyPendingConf();
  for (unsigned G = 0; G < Consensus.size(); ++G) {
    Consensus[G]->poll();
    retryLeaderQueue(G);
  }
#if HAMBAND_OBS_ENABLED
  GaugePendingFree->set(static_cast<std::int64_t>(pendingFreeTotal()));
  GaugePendingConf->set(static_cast<std::int64_t>(pendingConfTotal()));
#endif
  sim::SimDuration Extra =
      Parsed * M.ParseCpu + AppliedN * M.ApplyCpu;
  if (Extra > 0)
    Fabric.chargeCpu(Self, Extra, rdma::Transport::LanePoller);
  schedulePoll();
}

unsigned HambandNode::pollFreeRings() {
  unsigned Parsed = 0;
  std::vector<std::uint8_t> &Bytes = PollBuf;
  for (rdma::NodeId J = 0; J < Fabric.numNodes(); ++J) {
    if (J == Self)
      continue;
    // Bounded batch per traversal; a missed call is picked up next round.
    for (unsigned K = 0; K < 64 && FreeReaders[J]->peek(Bytes); ++K) {
      if (isSummaryDelta(Bytes.data(), Bytes.size())) {
        SummaryDeltaFrame F;
        bool Ok = decodeSummaryDelta(Bytes.data(), Bytes.size(), F);
        assert(Ok && "malformed summary-delta frame");
        FreeReaders[J]->consume();
        ++Parsed;
        if (Ok)
          handleSummaryFrame(J, F);
        continue;
      }
      if (isCallBatch(Bytes.data(), Bytes.size())) {
        std::vector<WireCall> Calls;
        if (!decodeCallBatch(Spec, Fabric.numNodes(), Bytes.data(),
                             Bytes.size(), Calls)) {
          assert(false && "malformed F-ring batch record");
          break;
        }
        FreeReaders[J]->consume();
        Parsed += static_cast<unsigned>(Calls.size());
        enqueueDecodedFree(J, std::move(Calls));
        continue;
      }
      WireCall WC;
      if (!decodeCall(Spec, Fabric.numNodes(), Bytes.data(), Bytes.size(),
                      WC)) {
        assert(false && "malformed F-ring cell");
        break;
      }
      FreeReaders[J]->consume();
      ++Parsed;
      std::vector<WireCall> One;
      One.push_back(std::move(WC));
      enqueueDecodedFree(J, std::move(One));
    }
  }
  return Parsed;
}

void HambandNode::enqueueDecodedFree(ProcessId Issuer,
                                     std::vector<WireCall> Calls) {
  for (WireCall &WC : Calls) {
    // A record from another epoch is dropped without advancing the
    // cursor: the epoch fence guarantees its writer can never complete,
    // so the slot it claimed is dead and the post-install resync
    // (absorbTransfer / installMembership) re-aligns the cursors.
    if (WC.Epoch != CurrentEpoch) {
      CtrCrossEpochDrop->add();
      continue;
    }
    // The cursor is the reader-side dedup of reliable broadcast: ring
    // delivery and backup-slot recovery both advance it, so an entry
    // arriving through both paths is delivered exactly once.
    if (WC.BcastSeq < FreeSeqNext[Issuer])
      continue;
    FreeSeqNext[Issuer] = WC.BcastSeq + 1;
    FreePending[Issuer].push_back(std::move(WC));
  }
}

unsigned HambandNode::pollSummaries() {
  unsigned Parsed = 0;
  const rdma::MemoryRegion &Mem = Fabric.memory(Self);
  for (unsigned G = 0; G < Summaries.size(); ++G) {
    for (rdma::NodeId Src = 0; Src < Fabric.numNodes(); ++Src) {
      if (Src == Self)
        continue;
      rdma::MemOffset Off = Map.summarySlot(G, Src);
      if (Mem.readU8(Off + Cfg.SummarySlotBytes - 1) != 1)
        continue; // Canary clear: never written or mid-write.
      // The image starts with its sequence number; skip unchanged slots
      // (or stale ones -- delta frames can advance the seen version past
      // the last slot overwrite).
      std::uint64_t Seq = Mem.readU64(Off + 4);
      if (Seq <= Summaries[G][Src].Seq)
        continue;
      // Snapshot the whole slot before parsing: on the shm transport a
      // concurrent overwrite with a newer image could otherwise tear the
      // bytes between the length read and the payload slice. The snapshot
      // is validated via the seqlock trailer slotBytes() stamps: a torn
      // blend pairs a new header with an old trailer.
      std::vector<std::uint8_t> &Slot = PollBuf;
      Slot.resize(Cfg.SummarySlotBytes);
      Mem.readStable(Off, Slot.data(), Slot.size());
      if (Slot[Cfg.SummarySlotBytes - 1] != 1)
        continue;
      std::uint64_t SnapSeq = 0, Trailer = 0;
      std::memcpy(&SnapSeq, Slot.data() + 4, 8);
      std::memcpy(&Trailer, Slot.data() + Cfg.SummarySlotBytes - 9, 8);
      if (Trailer != SnapSeq)
        continue; // Overwrite in flight; retry next traversal.
      std::uint32_t Len = 0;
      std::memcpy(&Len, Slot.data(), 4);
      if (Len < 8 || Len + 13 > Cfg.SummarySlotBytes)
        continue;
      // Decoded into a reused image: installing swaps the replaced summary
      // back into it, so steady slot traffic reuses two buffers.
      SummaryImage &Img = RecvImage;
      if (!decodeSummary(Slot.data() + 4, Len, Img))
        continue;
      installFullImage(G, Src, Img);
      ++Parsed;
    }
  }
  return Parsed;
}

// -- Delta propagation (docs/deltas.md) --------------------------------------

std::size_t HambandNode::summaryImageBytes(std::size_t NumArgs,
                                           std::size_t NumCounts) {
  // encodeSummary: u64 seq | u16 method | u16 argc | u32 issuer | u64 req
  // | i64 args[argc] | u16 k | k x (u16 method, u64 count).
  return 24 + 8 * NumArgs + 2 + 10 * NumCounts;
}

std::size_t HambandNode::frameChunkMaxArgs() const {
  std::size_t Budget = Cfg.FreeGeom.maxRecordPayload();
  // Frame header plus an argument-free image with a worst-case
  // applied-count block.
  std::size_t Fixed =
      SummaryDeltaHeaderBytes + summaryImageBytes(0, Type.numMethods());
  if (Budget <= Fixed + 8)
    return 1;
  return (Budget - Fixed) / 8;
}

bool HambandNode::fullImageShippable(const Call &Summary,
                                     std::size_t NumCounts) const {
  std::size_t Full = summaryImageBytes(Summary.Args.size(), NumCounts);
  if (Full + 13 <= Cfg.SummarySlotBytes)
    return true; // Classic slot overwrite.
  if (Type.summaryArgsDecomposable(Summary.Method)) {
    std::size_t MaxArgs = frameChunkMaxArgs();
    std::size_t Chunks =
        std::max<std::size_t>(1, (Summary.Args.size() + MaxArgs - 1) /
                                     MaxArgs);
    return Chunks <= 0xFFFF; // ChunkCount is a u16.
  }
  // A non-decomposable image must fit one (possibly spanning) record.
  return Full + SummaryDeltaHeaderBytes <= Cfg.FreeGeom.maxRecordPayload();
}

std::vector<Bytes>
HambandNode::encodeFullFrames(unsigned G, const SummaryImage &Img) const {
  std::vector<Call> Chunks =
      Type.decomposeSummary(Img.Summary, frameChunkMaxArgs());
  assert(!Chunks.empty() && Chunks.size() <= 0xFFFF &&
         "fullImageShippable() admits at most 65535 chunks");
  std::vector<Bytes> Out;
  Out.reserve(Chunks.size());
  for (std::size_t I = 0; I < Chunks.size(); ++I) {
    SummaryImage Part;
    Part.Seq = Img.Seq;
    Part.Summary = std::move(Chunks[I]);
    Part.AppliedCounts = Img.AppliedCounts;
    SummaryDeltaFrame F;
    F.Group = static_cast<std::uint8_t>(G);
    F.Full = 1;
    F.ChunkIdx = static_cast<std::uint16_t>(I);
    F.ChunkCount = static_cast<std::uint16_t>(Chunks.size());
    F.FromSeq = 0;
    F.ToSeq = Img.Seq;
    F.Epoch = CurrentEpoch;
    F.Image = encodeSummary(Part);
    Out.push_back(encodeSummaryDelta(F));
  }
  return Out;
}

bool HambandNode::handleSummaryFrame(ProcessId Src,
                                     const SummaryDeltaFrame &F) {
  unsigned G = F.Group;
  if (G >= Summaries.size() || Src >= Fabric.numNodes() || Src == Self)
    return false;
  SummaryRow &Row = Summaries[G][Src];
  if (F.Full) {
    CtrDeltaFullIn->add();
    SummaryImage Img;
    if (!decodeSummary(F.Image.data(), F.Image.size(), Img)) {
      CtrDeltaDropped->add();
      return false;
    }
    if (F.ChunkCount <= 1)
      return installFullImage(G, Src, Img);
    if (F.ToSeq <= Row.Seq)
      return false; // A chunk of an image we already superseded.
    if (Row.AssemblySeq != F.ToSeq || Row.Parts.size() != F.ChunkCount) {
      // A newer (or differently shaped) image abandons the partial set:
      // the F-ring is FIFO per source, so the rest of the old set is
      // never coming.
      Row.AssemblySeq = F.ToSeq;
      Row.Parts.assign(F.ChunkCount, std::nullopt);
      Row.PartsHave = 0;
    }
    if (!Row.Parts[F.ChunkIdx]) {
      Row.Parts[F.ChunkIdx] = std::move(Img);
      ++Row.PartsHave;
    }
    if (Row.PartsHave < F.ChunkCount)
      return false;
    // All chunks present. decomposeSummary slices the argument list
    // contiguously, so concatenating the chunk arguments in index order
    // rebuilds the exact image in O(n); re-folding the chunks through
    // summarize would be quadratic for set-valued summaries.
    SummaryImage Whole = std::move(*Row.Parts[0]);
    for (std::size_t I = 1; I < Row.Parts.size(); ++I) {
      Call &Part = Row.Parts[I]->Summary;
      Whole.Summary.Args.insert(Whole.Summary.Args.end(),
                                Part.Args.begin(), Part.Args.end());
    }
    Whole.Seq = Row.AssemblySeq;
    Row.AssemblySeq = 0;
    Row.Parts.clear();
    Row.PartsHave = 0;
    return installFullImage(G, Src, Whole);
  }
  // Delta frame.
  if (F.ToSeq <= Row.Seq) {
    CtrDeltaDup->add();
    return false;
  }
  if (tryApplyDeltaFrame(Src, F)) {
    retryBufferedFrames(G, Src);
    return true;
  }
  // Version gap: park the frame until the gap closes or anti-entropy
  // leapfrogs it.
  CtrDeltaGap->add();
  if (Row.Buffered.size() >= BufferedFrameCap) {
    CtrDeltaDropped->add();
    return false;
  }
  Row.Buffered.push_back(F);
  return false;
}

bool HambandNode::tryApplyDeltaFrame(ProcessId Src,
                                     const SummaryDeltaFrame &F) {
  SummaryRow &Row = Summaries[F.Group][Src];
  if (F.ToSeq <= Row.Seq)
    return true; // Duplicate: consumed, nothing to apply.
  if (F.FromSeq != Row.Seq)
    return false; // Gap.
  SummaryImage Img;
  if (!decodeSummary(F.Image.data(), F.Image.size(), Img)) {
    CtrDeltaDropped->add();
    return true; // Malformed: consume rather than wedge the buffer.
  }
  // Summarize is the group's join: folding the delta into the image is
  // the fold the source applied to the underlying calls.
  Call Joined = Img.Summary;
  if (Row.Image) {
    bool Ok = Type.summarize(*Row.Image, Img.Summary, Joined);
    assert(Ok && "delta join failed for a closed summarization group");
    (void)Ok;
  }
  Row.Image = std::move(Joined);
  Row.Seq = F.ToSeq;
  for (const auto &[U, Cnt] : Img.AppliedCounts)
    if (Cnt > Applied[Src][U])
      Applied[Src][U] = Cnt;
  // The join appends exactly the delta's calls, which are conflict-free:
  // absorb them into the visible cache instead of invalidating it.
  if (VisibleCache && !VisibleDirty)
    Type.apply(*VisibleCache, Img.Summary);
  else
    VisibleDirty = true;
  CtrDeltaIn->add();
  return true;
}

void HambandNode::retryBufferedFrames(unsigned G, ProcessId Src) {
  SummaryRow &Row = Summaries[G][Src];
  auto &Buf = Row.Buffered;
  bool Progress = true;
  while (Progress && !Buf.empty()) {
    Progress = false;
    for (auto It = Buf.begin(); It != Buf.end();) {
      if (It->ToSeq <= Row.Seq) {
        It = Buf.erase(It); // Superseded (a full image leapt over it).
        Progress = true;
      } else if (tryApplyDeltaFrame(Src, *It)) {
        It = Buf.erase(It);
        Progress = true;
      } else {
        ++It;
      }
    }
  }
}

bool HambandNode::installFullImage(unsigned G, ProcessId Src,
                                   SummaryImage &Img) {
  SummaryRow &Row = Summaries[G][Src];
  if (Img.Seq <= Row.Seq)
    return false;
  if (Row.Image)
    std::swap(*Row.Image, Img.Summary);
  else
    Row.Image = std::move(Img.Summary);
  Row.Seq = Img.Seq;
  for (const auto &[U, Cnt] : Img.AppliedCounts)
    if (Cnt > Applied[Src][U])
      Applied[Src][U] = Cnt;
  // A full install replaces the cached image wholesale; the incremental
  // shortcut does not apply (the delta from the old image is unknown).
  VisibleDirty = true;
  // The version may have leapt over buffered delta frames; drain them.
  retryBufferedFrames(G, Src);
  return true;
}

void HambandNode::seedSummary(unsigned Group, ProcessId Src,
                              const Call &Summary, std::uint64_t Seq) {
  assert(Group < Summaries.size() && Src < Fabric.numNodes());
  Summaries[Group][Src].Image = Summary;
  Summaries[Group][Src].Seq = Seq;
  // The applied-count row travels with shipped images; a seeded image
  // must carry it too or the applied-table equality oracles would see a
  // seeded cluster as diverged.
  if (Seq > Applied[Src][Summary.Method])
    Applied[Src][Summary.Method] = Seq;
  VisibleDirty = true;
}

unsigned HambandNode::pollConfRings() {
  unsigned Parsed = 0;
  std::vector<std::uint8_t> &Bytes = PollBuf;
  for (unsigned G = 0; G < ConfReaders.size(); ++G) {
    for (unsigned K = 0; K < 64 && ConfReaders[G]->peek(Bytes); ++K) {
      WireCall WC;
      std::uint64_t Idx = ConfReaders[G]->head();
      if (!decodeCall(Spec, Fabric.numNodes(), Bytes.data(), Bytes.size(),
                      WC)) {
        assert(false && "malformed L-ring cell");
        break;
      }
      ConfReaders[G]->consume();
      ConfSeen[G].insert(WC.TheCall.Req);
      ConfPending[G].emplace(Idx, std::move(WC));
      bumpConfContig(G);
      ++Parsed;
    }
  }
  return Parsed;
}

void HambandNode::bumpConfContig(unsigned Group) {
  while (ConfPending[Group].count(ConfReceivedContig[Group]) ||
         ConfReceivedContig[Group] < ConfAppliedIdx[Group])
    ++ConfReceivedContig[Group];
}

unsigned HambandNode::pollMailboxes() {
  unsigned Parsed = 0;
  std::vector<std::uint8_t> &Bytes = PollBuf;
  for (rdma::NodeId J = 0; J < Fabric.numNodes(); ++J) {
    if (J == Self)
      continue;
    for (unsigned K = 0; K < 64 && MailReaders[J]->peek(Bytes); ++K) {
      MailMsg Msg;
      bool Ok = decodeMail(Bytes.data(), Bytes.size(), Msg);
      MailReaders[J]->consume();
      ++Parsed;
      if (Ok)
        handleMail(J, std::move(Msg));
    }
  }
  return Parsed;
}

void HambandNode::handleMail(ProcessId /*From*/, MailMsg Msg) {
  if (Msg.Kind == MailKind::ConfRequest) {
    if (OutOfService)
      return; // Dropped; the origin retries against the next leader.
    if (Msg.Epoch != CurrentEpoch) {
      // Cross-epoch request (mailboxes are unfenced): tell the origin to
      // retry so it re-resolves the leader under its installed epoch.
      CtrCrossEpochDrop->add();
      respondConf(Msg.Origin, Msg.ReqId, ConfOutcome::Retry, nullptr);
      return;
    }
    if (Spec.category(Msg.TheCall.Method) != MethodCategory::Conflicting)
      return;
    unsigned G = *Spec.syncGroup(Msg.TheCall.Method);
    // A conflicting call arriving at the leader flushes its own pending
    // batch so the ordered entry never overtakes this node's earlier
    // unshipped calls.
    flushOutgoing();
    leaderProcessConf(G, Msg.Origin,
                      std::make_unique<PendingCall>(std::move(Msg.TheCall),
                                                    nullptr));
    return;
  }
  // ConfResponse.
  auto It = AwaitingResponse.find(Msg.ReqId);
  if (It == AwaitingResponse.end())
    return; // Duplicate response (e.g. after a retry); already completed.
  ConfOutcome Outcome = static_cast<ConfOutcome>(Msg.Ok);
  if (Outcome == ConfOutcome::Retry) {
    // The responder could not decide (deposed mid-request): retry against
    // the current leader immediately (the timeout scanner would also
    // catch it).
    It->second.SentAt = 0;
    checkConfTimeouts();
    return;
  }
  // Committed or terminally rejected: complete the client call.
  PendingCallPtr P = std::move(It->second.Call);
  AwaitingResponse.erase(It);
  complete(std::move(P), Outcome == ConfOutcome::Committed, 0);
}

unsigned HambandNode::applyPendingFree() {
  unsigned AppliedN = 0;
  for (rdma::NodeId J = 0; J < Fabric.numNodes(); ++J) {
    if (J == Self)
      continue;
    auto &Q = FreePending[J];
    while (!Q.empty() && depsSatisfied(Q.front().Deps)) {
      if (Q.front().Epoch != CurrentEpoch) {
        // Enqueued before an epoch install that the drain stage should
        // have flushed; counted so the reconfig oracles can assert it
        // never happens (reconfig.cross_epoch_apply stays 0).
        CtrCrossEpochApply->add();
        Q.pop_front();
        continue;
      }
      const Call &C = Q.front().TheCall;
      applyToStored(C);
      Applied[C.Issuer][C.Method] += 1;
      if (Cfg.RecordApplyLog)
        FreeApplyLog[C.Issuer].push_back(C.Req);
      Q.pop_front();
      ++AppliedN;
      ++NumAppliedBuffered;
    }
    // Head entry present but its dependency array is unsatisfied: the
    // buffer is stalled waiting for another process's calls.
    if (!Q.empty())
      CtrDepStallFree->add();
  }
  return AppliedN;
}

unsigned HambandNode::applyPendingConf() {
  unsigned AppliedN = 0;
  for (unsigned G = 0; G < ConfPending.size(); ++G) {
    auto &M = ConfPending[G];
    auto It = M.find(ConfAppliedIdx[G]);
    while (It != M.end() && depsSatisfied(It->second.Deps)) {
      if (It->second.Epoch != CurrentEpoch) {
        CtrCrossEpochApply->add();
        M.erase(It);
        ++ConfAppliedIdx[G];
        It = M.find(ConfAppliedIdx[G]);
        continue;
      }
      const Call &C = It->second.TheCall;
      applyToStored(C);
      Applied[C.Issuer][C.Method] += 1;
      if (Cfg.RecordApplyLog)
        ConfApplyLog[G].push_back({C.Issuer, C.Req});
      if (C.Issuer == Self && !LeaderSpeculative[G].empty() &&
          LeaderSpeculative[G].front() == C)
        LeaderSpeculative[G].pop_front();
      M.erase(It);
      ++ConfAppliedIdx[G];
      ++AppliedN;
      ++NumAppliedBuffered;
      It = M.find(ConfAppliedIdx[G]);
    }
    if (It != M.end())
      CtrDepStallConf->add();
  }
  return AppliedN;
}

// -- Batching (docs/batching.md) ---------------------------------------------

std::size_t HambandNode::freeBatchCapBytes() const {
  // A wire record must fit one spanning ring reservation, and the staged
  // flush image (which also carries summaries) must fit the backup slot.
  return std::min(Cfg.FreeGeom.maxRecordPayload(),
                  static_cast<std::size_t>(Cfg.BackupSlotBytes / 2));
}

void HambandNode::noteBatchedCall() {
  ++BatchedPending;
  if (BatchedPending == 1)
    OldestPendingAt = Fabric.now();
  if (FlushesInFlight == 0) {
    // Doorbell coalescing: ship immediately while the wire is idle;
    // calls arriving during the flight accumulate into the next batch,
    // which ships when the in-flight writes complete.
    flushBatches(FlushCause::Pipe);
    return;
  }
  if (BatchedPending >= Cfg.Batch.MaxCalls) {
    // Size trigger: overflow ships concurrently with the in-flight
    // flush rather than growing without bound.
    flushBatches(FlushCause::Size);
    return;
  }
  armFlushTimer();
}

void HambandNode::armFlushTimer() {
  if (FlushTimerArmed)
    return;
  FlushTimerArmed = true;
  Fabric.runAfter(Self, Cfg.Batch.FlushInterval, [this]() {
    FlushTimerArmed = false;
    if (BatchedPending == 0)
      return;
    // The backstop bounds how long any call waits: completion-driven
    // flushes normally ship sooner, so this only fires when the wire
    // stalls (full rings, injected delays).
    sim::SimDuration Age = Fabric.now() - OldestPendingAt;
    if (Age >= Cfg.Batch.FlushInterval) {
      flushBatches(FlushCause::Timeout);
      return;
    }
    armFlushTimer();
  });
}

void HambandNode::flushOutgoing() {
  if (BatchedPending == 0)
    return;
  flushBatches(FlushCause::Conf);
}

void HambandNode::flushBatches(FlushCause Cause) {
  if (BatchedPending == 0)
    return;
  unsigned N = Fabric.numNodes();
  assert(N > 1 && "calls complete inline when N == 1");
  const rdma::NetworkModel &M = Fabric.model();

  CtrFlush[static_cast<unsigned>(Cause)]->add();
  HistBatchCalls->record(BatchedPending);
  HistBatchBytes->record(FreeBatchBytes);

  // Take over the accumulated calls; calls arriving while this flush is
  // in flight accumulate afresh. The tally completes the flush's calls,
  // summary calls first, once every write completed.
  BatchedPending = 0;
  auto Tally = std::make_shared<FlushTally>();
  FlushImage &Img = Scratch.Staged;
  Img.Summaries.clear();
  Img.FreeRecord = Bytes();
  bool StageOk = true;
  std::vector<std::pair<unsigned, Bytes>> &SlotWrites = Scratch.SlotWrites;
  SlotWrites.clear();
  std::vector<Bytes> FullFrames;
  std::vector<Bytes> DeltaFrames;
  unsigned DeltaGroup = 0;
  for (unsigned G = 0; G < Outbound.size(); ++G) {
    GroupOutbound &Out = Outbound[G];
    if (Out.Calls == 0)
      continue;
    // One image covering every call folded since the last flush (the Seq
    // jump is fine: peers only check for newer).
    const SummaryRow &Own = Summaries[G][Self];
    SummaryImage &SImg = Scratch.Image;
    SImg.Seq = Own.Seq;
    SImg.Summary = *Own.Image;
    SImg.AppliedCounts.clear();
    for (MethodId U : groupMethods(G))
      SImg.AppliedCounts.emplace_back(U, Applied[Self][U]);
    std::size_t FullBytes = summaryImageBytes(SImg.Summary.Args.size(),
                                              SImg.AppliedCounts.size());
    bool FitsSlot = FullBytes + 13 <= Cfg.SummarySlotBytes;
    // The staged flush image carries the full summary (idempotent
    // recovery) -- unless it cannot possibly fit the backup slot, in
    // which case the whole flush goes unstaged (counted): staging a
    // partial flush image would break the flush's crash atomicity.
    bool FitsStage = FullBytes + 11 <= Cfg.BackupSlotBytes;
    Bytes Payload;
    if (FitsSlot || FitsStage)
      Payload = encodeSummary(SImg);

    // The one ship decision: the classic summary slot (deltas off, the
    // image fits), else a delta frame over the F-rings (deltas on, no
    // anti-entropy round due, the frame fits one record), else chunked
    // full-image frames. Full frames are exempt from the test-only delta
    // drop hook, so anti-entropy always heals.
    Bytes DeltaFrame;
    if (Cfg.Delta.Enabled &&
        !(Cfg.Delta.AntiEntropyEvery > 0 &&
          Out.FlushesSinceFull + 1 >= Cfg.Delta.AntiEntropyEvery)) {
      assert(Out.Delta && "dirty group without a pending delta");
      SummaryImage DImg;
      DImg.Seq = Own.Seq;
      DImg.Summary = std::move(*Out.Delta);
      DImg.AppliedCounts = SImg.AppliedCounts;
      SummaryDeltaFrame F;
      F.Group = static_cast<std::uint8_t>(G);
      F.Full = 0;
      F.FromSeq = Own.Seq - Out.Calls; // What peers were last shipped.
      F.ToSeq = Own.Seq;
      F.Epoch = CurrentEpoch;
      F.Image = encodeSummary(DImg);
      DeltaFrame = encodeSummaryDelta(F);
      if (DeltaFrame.size() > Cfg.FreeGeom.maxRecordPayload())
        DeltaFrame = Bytes(); // Oversized delta: ship the full image.
    }
    if (!Cfg.Delta.Enabled && FitsSlot) {
      SlotWrites.emplace_back(G, slotBytes(Payload, Cfg.SummarySlotBytes));
    } else if (!DeltaFrame.empty()) {
      DeltaFrames.push_back(std::move(DeltaFrame));
      DeltaGroup = G;
      CtrDeltaOut->add();
      ++Out.FlushesSinceFull;
    } else {
      if (!Cfg.Delta.Enabled)
        CtrSlotOverflow->add();
      for (Bytes &FB : encodeFullFrames(G, SImg))
        FullFrames.push_back(std::move(FB));
      CtrDeltaFullOut->add();
      Out.FlushesSinceFull = 0;
    }
    if (FitsStage)
      Img.Summaries.emplace_back(static_cast<std::uint8_t>(G),
                                 std::move(Payload));
    else
      StageOk = false;

    Out.Calls = 0;
    Out.Delta.reset();
    for (PendingCallPtr &P : Out.Done)
      Tally->Calls.push_back(std::move(P));
    Out.Done.clear();
  }

  // The free calls, encoded once: a lone call ships in the plain record
  // format, two or more as one batch record -- the very bytes the flush
  // image stages. handleFree's pre-flush keeps every batch within
  // freeBatchCapBytes(), so it fits one spanning ring record.
  Bytes FreeRecord;
  if (!FreeBatch.empty()) {
    Img.FreeRecord = encodeCallBatch(FreeBatch);
    FreeRecord = FreeBatch.size() == 1 ? FreeBatch[0] : Img.FreeRecord;
    assert((FreeBatch.size() == 1 ||
            FreeRecord.size() <= freeBatchCapBytes()) &&
           "handleFree pre-flushes before the batch outgrows its cap");
  }
  for (PendingCallPtr &P : FreeBatchDone)
    Tally->Calls.push_back(std::move(P));
  FreeBatch.clear();
  FreeBatchDone.clear();
  FreeBatchBytes = 0;

  bool DropDeltas = DropDeltasForTest && !DeltaFrames.empty();
  unsigned Writes = static_cast<unsigned>(
      (SlotWrites.size() + FullFrames.size() +
       (DropDeltas ? 0 : DeltaFrames.size()) + (FreeRecord.empty() ? 0 : 1)) *
      activePeerCount());
  if (Writes == 0) {
    // Every record of this flush was a delta the drop hook swallowed:
    // complete locally without staging (recovery must not resurrect
    // dropped deltas -- the point of the hook is a durable gap).
    for (PendingCallPtr &P : Tally->Calls)
      complete(std::move(P), true, 0);
    return;
  }

  // Crash atomicity: stage the flush image when it fits (recovery
  // installs it idempotently). A one-group flush whose full image
  // outgrew the backup slot degrades to staging its delta frame;
  // otherwise the flush goes unstaged (counted) and the gap a crash then
  // leaves heals through anti-entropy.
  Bytes Staged = encodeFlushImage(Img);
  if (StageOk && Staged.size() + 11 <= Cfg.BackupSlotBytes)
    Broadcast->stage(ReliableBroadcast::Kind::FreeBatch, 0, Staged,
                     CurrentEpoch);
  else if (DeltaFrames.size() == 1 && SlotWrites.empty() &&
           FullFrames.empty() && FreeRecord.empty() &&
           DeltaFrames[0].size() + 11 <= Cfg.BackupSlotBytes)
    Broadcast->stage(ReliableBroadcast::Kind::SummaryDelta,
                     static_cast<std::uint8_t>(DeltaGroup), DeltaFrames[0],
                     CurrentEpoch);
  else
    CtrStageSkipped->add();

  ++FlushesInFlight;
  // One serialization charge per batch. An unbatched call (MaxCalls = 1)
  // already paid it inside its own CPU task (handleReduce, handleFree).
  if (Cfg.Batch.MaxCalls > 1)
    Fabric.chargeCpu(Self, M.ParseCpu, rdma::Transport::LaneClient);

  Tally->Remaining = Writes;
  auto Finish = [this, Tally](rdma::WcStatus) {
    if (--Tally->Remaining != 0)
      return;
    Broadcast->clear();
    --FlushesInFlight;
    for (PendingCallPtr &P : Tally->Calls)
      complete(std::move(P), true, 0);
    // The coalescing continuation: ship whatever accumulated meanwhile.
    if (BatchedPending > 0)
      flushBatches(BatchedPending >= Cfg.Batch.MaxCalls ? FlushCause::Size
                                                        : FlushCause::Pipe);
  };

  // Summaries (slot writes and frames) post before the free record: a
  // free call's dependency array may reference applied counts that travel
  // with a summary image, and the per-lane FIFO fabric delivers writes in
  // post order.
  auto ToEveryPeer = [&](auto &&Post) {
    for (rdma::NodeId Peer = 0; Peer < N; ++Peer)
      if (Peer != Self && activeNode(Peer))
        Post(Peer);
  };
  auto AppendToEveryPeer = [&](const Bytes &Record) {
    ToEveryPeer([&](rdma::NodeId Peer) {
      FreeWriters[Peer]->appendOrQueue(Record, Finish, Cfg.PollInterval);
    });
  };
  for (const auto &[G, Slot] : SlotWrites)
    ToEveryPeer([&](rdma::NodeId Peer) {
      Fabric.postWrite(Self, Peer, Map.summarySlot(G, Self), Slot, DataKey,
                       Finish, rdma::Transport::LaneClient);
    });
  for (const Bytes &FB : FullFrames)
    AppendToEveryPeer(FB);
  if (!DropDeltas)
    for (const Bytes &DF : DeltaFrames)
      AppendToEveryPeer(DF);
  if (!FreeRecord.empty())
    AppendToEveryPeer(FreeRecord);
}

// -- Failure handling --------------------------------------------------------

void HambandNode::onPeerSuspected(rdma::NodeId Peer) {
  for (auto &Cons : Consensus)
    Cons->onPeerSuspected(Peer);
  Broadcast->fetch(Peer, [this, Peer](ReliableBroadcast::BackupMessage Msg) {
    if (Msg.TheKind != ReliableBroadcast::Kind::None &&
        Msg.Epoch != CurrentEpoch) {
      // A slot staged in another epoch: the fence already killed its
      // writes, and recovery must not resurrect them across the boundary.
      CtrCrossEpochDrop->add();
      return;
    }
    switch (Msg.TheKind) {
    case ReliableBroadcast::Kind::None:
      return;
    case ReliableBroadcast::Kind::SummaryDelta: {
      // A delta frame staged because the full image outgrew the backup
      // slot: feed it through the regular gap-checked receive rules (a
      // dup is dropped, a gap is buffered and heals via anti-entropy).
      SummaryDeltaFrame F;
      if (!decodeSummaryDelta(Msg.Payload.data(), Msg.Payload.size(), F))
        return;
      if (handleSummaryFrame(Peer, F)) {
        ++NumRecovered;
        CtrRecovered->add();
      }
      return;
    }
    case ReliableBroadcast::Kind::FreeBatch: {
      // A flush staged as one image: its summary images and its free
      // calls recover together or not at all.
      FlushImage Img;
      if (!decodeFlushImage(Msg.Payload.data(), Msg.Payload.size(), Img))
        return;
      for (const auto &[G, SumBytes] : Img.Summaries) {
        SummaryImage SImg;
        if (!decodeSummary(SumBytes.data(), SumBytes.size(), SImg))
          continue;
        if (G < Summaries.size() && SImg.Seq > Summaries[G][Peer].Seq) {
          installFullImage(G, Peer, SImg);
          ++NumRecovered;
          CtrRecovered->add();
        }
      }
      if (Img.FreeRecord.empty())
        return;
      std::vector<WireCall> Calls;
      if (!decodeCallBatch(Spec, Fabric.numNodes(), Img.FreeRecord.data(),
                           Img.FreeRecord.size(), Calls))
        return;
      // Batch entries carry consecutive sequences; deliver the
      // contiguous-next suffix and drop already-received duplicates.
      for (WireCall &WC : Calls) {
        if (WC.BcastSeq != FreeSeqNext[Peer])
          continue;
        FreeSeqNext[Peer] = WC.BcastSeq + 1;
        FreePending[Peer].push_back(std::move(WC));
        ++NumRecovered;
        CtrRecovered->add();
      }
      return;
    }
    }
  });
}

// -- Membership reconfiguration (docs/reconfig.md) ---------------------------

void HambandNode::closeEpoch() {
  EpochClosed = true;
  // Push out whatever the batcher holds so the drain stage only waits on
  // in-flight completions, never on a timer-held batch.
  flushOutgoing();
}

void HambandNode::openEpoch() { EpochClosed = false; }

bool HambandNode::reconfigQuiesced() const {
  if (!idle() || FlushesInFlight != 0)
    return false;
  for (const auto &W : FreeWriters)
    if (W && W->queued() != 0)
      return false;
  for (const auto &Q : LeaderSpeculative)
    if (!Q.empty())
      return false;
  return true;
}

std::uint64_t HambandNode::reconfigDigest() {
  // Like stateDigest() but restricted to replicated state and seeded
  // without the node id: drained members must produce the same value.
  std::uint64_t H = 0x5bd1e9955bd1e995ull;
  auto Mix = [&H](std::uint64_t V) {
    H ^= V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
  };
  const std::string S = visibleState().str();
  std::uint64_t SH = 1469598103934665603ull; // FNV-1a
  for (char Ch : S) {
    SH ^= static_cast<unsigned char>(Ch);
    SH *= 1099511628211ull;
  }
  Mix(SH);
  for (const auto &Row : Applied)
    for (std::uint64_t V : Row)
      Mix(V);
  for (std::uint64_t V : ConfReceivedContig)
    Mix(V);
  return H;
}

unsigned HambandNode::activePeerCount() const {
  unsigned N = Fabric.numNodes();
  if (Active.empty())
    return N - 1;
  unsigned C = 0;
  for (rdma::NodeId P = 0; P < N; ++P)
    if (P != Self && Active[P] != 0)
      ++C;
  return C;
}

TransferImage HambandNode::buildTransferImage(
    const std::vector<std::uint64_t> &ConfNext) const {
  TransferImage Img;
  Img.Epoch = CurrentEpoch;
  Img.Applied = Applied;
  Img.FreeSeqNext = FreeSeqNext;
  // The donor's own cursor entry is unused locally; the joiner needs the
  // donor's *outgoing* position there.
  Img.FreeSeqNext[Self] = BcastSeqOut;
  unsigned N = Fabric.numNodes();
  Img.Summaries.resize(Summaries.size());
  for (unsigned G = 0; G < Summaries.size(); ++G) {
    Img.Summaries[G].resize(N);
    for (rdma::NodeId Src = 0; Src < N; ++Src) {
      const SummaryRow &Row = Summaries[G][Src];
      if (!Row.Image)
        continue;
      SummaryImage SImg;
      SImg.Seq = Row.Seq;
      SImg.Summary = *Row.Image;
      Img.Summaries[G][Src] = {SImg.Seq, encodeSummary(SImg)};
    }
  }
  Img.ConfNextIndex = ConfNext;
  Img.IrreducibleLog = ReconfigLog;
  return Img;
}

void HambandNode::absorbTransfer(const TransferImage &Img) {
  Applied = Img.Applied;
  FreeSeqNext = Img.FreeSeqNext;
  // Our entry in the transferred cursor table is the next broadcast the
  // cluster expects *from us* -- resume our outgoing numbering there.
  BcastSeqOut = std::max(BcastSeqOut, FreeSeqNext[Self]);
  for (unsigned G = 0; G < Summaries.size() && G < Img.Summaries.size();
       ++G) {
    for (rdma::NodeId Src = 0;
         Src < Fabric.numNodes() && Src < Img.Summaries[G].size(); ++Src) {
      const auto &[Seq, Enc] = Img.Summaries[G][Src];
      if (Enc.empty())
        continue;
      SummaryImage SImg;
      if (!decodeSummary(Enc.data(), Enc.size(), SImg))
        continue;
      Summaries[G][Src].Image = std::move(SImg.Summary);
      Summaries[G][Src].Seq = Seq;
    }
  }
  // Replay the donor's irreducible log in its apply order; applied counts
  // came with the table above, so only the stored state (and the logs a
  // future transfer or oracle reads) advance here.
  for (const Bytes &Enc : Img.IrreducibleLog) {
    Call C;
    if (!decodeLoggedCall(Enc.data(), Enc.size(), C))
      continue;
    Type.apply(*Stored, C);
    if (Cfg.Reconfig.Enabled)
      ReconfigLog.push_back(Enc);
    if (Cfg.RecordApplyLog) {
      if (Spec.category(C.Method) == MethodCategory::Conflicting) {
        if (auto G = Spec.syncGroup(C.Method))
          ConfApplyLog[*G].push_back({C.Issuer, C.Req});
      } else {
        FreeApplyLog[C.Issuer].push_back(C.Req);
      }
    }
  }
  ConfReceivedContig = Img.ConfNextIndex;
  ConfAppliedIdx = Img.ConfNextIndex;
  VisibleDirty = true;
  VisibleCache.reset();
}

void HambandNode::installMembership(const Membership &M,
                                    rdma::RegionKey NewKey,
                                    const std::vector<std::uint64_t> &ConfNext) {
  // The coordinator one-sided-writes the membership record before asking
  // for the install; verify it landed (the record, not the argument, is
  // the durable source of truth a restarted node would read).
  {
    const rdma::MemoryRegion &Mem = Fabric.memory(Self);
    std::vector<std::uint8_t> Slot = Mem.sliceStable(
        Map.membershipSlot(), MemoryMap::MembershipSlotBytes);
    Membership Rec;
    bool Ok = decodeMembership(Slot.data(), Slot.size(), Rec);
    assert(Ok && Rec.Epoch == M.Epoch &&
           "membership record missing from the membership slot");
    (void)Ok;
    (void)Rec;
  }
  CurrentEpoch = M.Epoch;
  Active = M.Active;
  DataKey = NewKey;
  for (auto &W : FreeWriters)
    if (W)
      W->setRegionKey(NewKey);
  bool SelfActive = activeNode(Self);
  if (Detector)
    for (rdma::NodeId P = 0; P < Fabric.numNodes(); ++P)
      if (P != Self)
        Detector->setMonitored(P, SelfActive && activeNode(P));
  if (!SelfActive)
    OutOfService = true;
  unsigned N = Fabric.numNodes();
  for (unsigned G = 0; G < Consensus.size(); ++G) {
    Consensus[G]->setActiveMask(Active);
    rdma::NodeId NewLeader = Self;
    for (unsigned K = 0; K < N; ++K) {
      rdma::NodeId Cand = (G + Cfg.LeaderOffset + K) % N;
      if (activeNode(Cand)) {
        NewLeader = Cand;
        break;
      }
    }
    Consensus[G]->adoptLeadership(NewLeader, ConfNext[G]);
    // adoptLeadership fires the LeaderChanged re-sync only when the
    // leader actually moved; a joiner whose group kept its leader still
    // needs its L-ring reader aligned to the agreed log position.
    ConfReaders[G]->setWriter(NewLeader);
    ConfReaders[G]->setHead(ConfReceivedContig[G]);
    if (NewLeader != Self)
      ConfReaders[G]->forceFeedback();
  }
  CtrEpochInstall->add();
}
