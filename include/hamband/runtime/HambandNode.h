//===- hamband/runtime/HambandNode.h - Hamband replica node -----*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One Hamband replica: the runtime of Section 4 implementing the concrete
/// RDMA WRDT semantics (Figure 7) over the simulated fabric.
///
/// Request processing ("Processing requests", Section 4):
///  1. queries execute locally against Apply(S)(σ);
///  2. reducible calls fold into the local summary (REDUCE);
///  3. irreducible conflict-free calls apply locally (FREE);
///  4. conflicting calls go to the synchronization group's Mu consensus
///     instance -- local calls directly when this node leads, otherwise
///     through a single-writer mailbox ring to the leader.
///
/// Reducible and free calls then enqueue into one propagation path, the
/// flush (flushBatches): it stages the flush image in the backup slot
/// (reliable broadcast), overwrites every peer's summary slot or ships
/// summary frames over the F-rings, and appends the free calls to the
/// remote F-rings. Unbatched operation is the one-call flush
/// (BatchingConfig::MaxCalls = 1, the default).
///
/// Two logical poller threads (one CPU lane here) traverse the F and L
/// buffers and apply calls whose dependency arrays are satisfied by the
/// local applied-counts table A.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RUNTIME_HAMBANDNODE_H
#define HAMBAND_RUNTIME_HAMBANDNODE_H

#include "hamband/core/ObjectType.h"
#include "hamband/obs/Metrics.h"
#include "hamband/runtime/HeartbeatDetector.h"
#include "hamband/runtime/MemoryMap.h"
#include "hamband/runtime/MuConsensus.h"
#include "hamband/runtime/Reconfig.h"
#include "hamband/runtime/ReliableBroadcast.h"
#include "hamband/runtime/RingBuffer.h"
#include "hamband/runtime/Runtime.h"
#include "hamband/runtime/WireFormat.h"

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>

namespace hamband {
namespace runtime {

/// Counts of a cluster's submitted calls still pending at one origin, each
/// origin on its own cache line. The cluster increments them at submit;
/// the origin node decrements them when the call completes.
struct alignas(64) OutstandingCalls {
  std::atomic<std::uint64_t> Calls{0};
  std::atomic<std::uint64_t> Updates{0};
};

/// A client call at its origin node, from submit to completion. It is
/// allocated once, moved (never copied) through every stage -- the CPU
/// task, a batch, the leader queue, a redirect -- and completed exactly
/// once by HambandNode.
struct PendingCall {
  PendingCall() = default;
  PendingCall(Call C, SubmitCallback Done,
              OutstandingCalls *Counts = nullptr, bool IsUpdate = false)
      : TheCall(std::move(C)), Done(std::move(Done)), Counts(Counts),
        IsUpdate(IsUpdate) {}

  Call TheCall;
  /// Empty for a conflicting call forwarded from another origin.
  SubmitCallback Done;
  /// Decremented at completion; null when the call was not submitted
  /// through a cluster.
  OutstandingCalls *Counts = nullptr;
  bool IsUpdate = false;
  /// When the origin accepted the call (node.resp_ns).
  sim::SimTime SubmittedAt = 0;
};
using PendingCallPtr = std::unique_ptr<PendingCall>;

/// Reduction-aware batching of the broadcast hot path (docs/batching.md).
///
/// Every reducible and free call ships through a flush. Reducible calls
/// fold into the local summary per call and the summary ships once per
/// flush; irreducible conflict-free calls accumulate into one spanning
/// F-ring batch record per flush (a single doorbell). With MaxCalls = 1
/// (the default) every call is its own flush: the unbatched paper
/// runtime. Conflicting calls never batch; their arrival flushes eagerly
/// to preserve PropConfSync/PropDep ordering.
struct BatchingConfig {
  /// Size trigger: flush as soon as this many calls are pending across
  /// the free batch and all dirty summary groups (1 = unbatched). The
  /// free batch record is also capped in bytes (freeBatchCapBytes).
  std::uint32_t MaxCalls = 1;
  /// Timeout trigger: pending calls never wait longer than this. It is a
  /// backstop -- the common flush is completion-driven doorbell
  /// coalescing (the next batch ships when the previous flush's writes
  /// complete).
  sim::SimDuration FlushInterval = sim::micros(2);
};

/// Delta-state propagation for reducible sync groups (docs/deltas.md).
///
/// When enabled, a flush ships the *fold of the calls since the last
/// shipped image* as a bounded F-ring frame tagged with the half-open
/// version interval it covers, instead of overwriting every peer's
/// summary slot with the full image. Periodic full-image anti-entropy
/// (chunked over the same rings) bounds divergence after gaps and keeps
/// recovery idempotent. Receivers buffer at most 64 out-of-order frames
/// per (group, source); later ones are dropped (counted) and heal via
/// anti-entropy. Off by default: every flush overwrites the summary
/// slots with full images.
struct DeltaConfig {
  /// Master switch.
  bool Enabled = false;
  /// Anti-entropy period: every this many delta flushes of a group, ship
  /// a full image instead of a delta (0 = never; gaps then heal only
  /// through backup-slot recovery).
  std::uint32_t AntiEntropyEvery = 64;
};

/// Tunables of the Hamband runtime.
struct HambandConfig {
  RingGeometry FreeGeom{4096, 256};
  RingGeometry ConfGeom{4096, 256};
  RingGeometry MailGeom{4096, 256};
  std::uint32_t SummarySlotBytes = 512;
  /// Sized so a flush image (summaries + free batch record) can be staged
  /// whole.
  std::uint32_t BackupSlotBytes = 4096;
  /// Period of the buffer-traversal loop. On shm (floored at 50 µs by
  /// tunedFor) it is only the idle backstop: a peer's write wakes the
  /// poller as soon as it lands.
  sim::SimDuration PollInterval = sim::micros(0.5);
  /// Origin-side retry timeout for redirected conflicting calls.
  sim::SimDuration ConfRetryTimeout = sim::micros(400);
  /// How long the leader holds a conflicting call that is not yet
  /// permissible (e.g. a worksOn whose addProject has not been delivered)
  /// before rejecting it. This is what makes dependent methods slower in
  /// Figure 11(b).
  sim::SimDuration PermissibilityWait = sim::micros(150);
  HeartbeatDetector::Config Heartbeat;
  /// Ablation: complete client calls after remote-write completions
  /// (true, default) or right after the local apply (unsafe-fast).
  bool RespondAfterCompletion = true;
  /// Reduction-aware batching of the broadcast hot path.
  BatchingConfig Batch;
  /// Delta-state propagation of reducible summaries (docs/deltas.md).
  DeltaConfig Delta;
  /// Online membership reconfiguration (docs/reconfig.md).
  ReconfigConfig Reconfig;
  /// Rotates initial consensus leadership: group G starts led by node
  /// (G + LeaderOffset) % N. A sharded deployment gives each shard a
  /// distinct offset so shard leaders spread across the cluster instead
  /// of piling every group-0 leader onto node 0.
  unsigned LeaderOffset = 0;
  /// Keep per-issuer/per-group apply-order logs (confApplyLog(),
  /// freeApplyLog()) for the explorer's agreement and recovery-atomicity
  /// oracles. Off by default: the logs grow with the run and would tax
  /// the bench hot path.
  bool RecordApplyLog = false;

  /// Returns this config with every interval stretched to suit \p Kind.
  /// The defaults above are calibrated against the simulator's virtual
  /// NetworkModel nanoseconds; on the wall-clock shm transport (OS
  /// threads, possibly oversubscribed cores, sanitizer slowdowns) the
  /// same numbers would make pollers spin and detectors suspect healthy
  /// nodes. Applied by HambandCluster's transport-kind constructor.
  HambandConfig tunedFor(rdma::TransportKind Kind) const;
};

/// One replica node of a Hamband cluster.
class HambandNode {
public:
  HambandNode(rdma::Transport &Fabric, rdma::NodeId Self,
              const ObjectType &Type, const MemoryMap &Map,
              const HambandConfig &Cfg,
              const std::vector<rdma::RegionKey> &ConfKeys);
  ~HambandNode();

  HambandNode(const HambandNode &) = delete;
  HambandNode &operator=(const HambandNode &) = delete;

  /// Starts the pollers, heartbeat and detector.
  void start();

  /// Handles a client call arriving at this node.
  void submit(PendingCallPtr P);
  void submit(Call C, SubmitCallback Done) {
    submit(std::make_unique<PendingCall>(std::move(C), std::move(Done)));
  }

  /// Failure injection: stop the heartbeat thread (peers will suspect us).
  void suspendHeartbeat() { Detector->suspendBeating(); }

  /// Undoes suspendHeartbeat(): the beat timer resumes on its next tick.
  /// Peers that already suspected us keep the suspicion (the detector's
  /// latch is one-shot), but the node itself works normally again.
  void resumeHeartbeat() { Detector->resumeBeating(); }

  /// Failure injection, second half: the node stops serving new client
  /// calls and ignores forwarded requests, modeling the paper's injected
  /// node being taken out of service ("all the requests of the failed
  /// node are redirected"). Its pollers keep applying one-sided traffic
  /// and in-flight work completes, matching a process whose service
  /// threads stalled while its memory stays registered.
  void setOutOfService() { OutOfService = true; }

  /// Undoes setOutOfService(): the node accepts client calls again.
  void returnToService() { OutOfService = false; }
  bool isOutOfService() const { return OutOfService; }

  // -- Introspection (metrics, tests) -------------------------------------

  rdma::NodeId id() const { return Self; }

  /// The state a query at this node observes: Apply(S)(σ).
  const ObjectState &visibleState();

  /// A(from, u).
  std::uint64_t applied(ProcessId From, MethodId U) const {
    return Applied[From][U];
  }

  /// The full applied table (row per process).
  const std::vector<std::vector<std::uint64_t>> &appliedTable() const {
    return Applied;
  }

  /// True when no buffered or pending work remains at this node.
  bool idle() const;

  /// Current leader of \p Group as known by this node.
  rdma::NodeId knownLeader(unsigned Group) const;

  MuConsensus *consensus(unsigned Group) {
    return Group < Consensus.size() ? Consensus[Group].get() : nullptr;
  }
  HeartbeatDetector &detector() { return *Detector; }
  ReliableBroadcast &broadcast() { return *Broadcast; }

  /// Counts of processed calls (diagnostics / tests).
  std::uint64_t localUpdates() const { return NumLocalUpdates; }
  std::uint64_t appliedBuffered() const { return NumAppliedBuffered; }
  std::uint64_t recoveredBroadcasts() const { return NumRecovered; }

  /// This node's metrics registry (all its rings, broadcast and consensus
  /// instances feed into it) and a frozen copy of it.
  obs::Registry &stats() { return Stats; }
  obs::StatsSnapshot statsSnapshot() const { return Stats.snapshot(); }

  /// Diagnostic sizes of the pending structures (tests, stall debugging).
  std::size_t pendingFreeTotal() const;
  std::size_t pendingConfTotal() const;
  std::size_t leaderQueueTotal() const;
  std::size_t awaitingResponseCount() const {
    return AwaitingResponse.size();
  }

  /// Apply-order logs (only populated under Cfg.RecordApplyLog): the
  /// (issuer, request) sequence this node applied per consensus group, and
  /// the request sequence applied per issuing process on the broadcast
  /// path (local applies included). The explorer's agreement oracles
  /// compare these across nodes.
  const std::vector<std::vector<std::pair<ProcessId, RequestId>>> &
  confApplyLog() const {
    return ConfApplyLog;
  }
  const std::vector<std::vector<RequestId>> &freeApplyLog() const {
    return FreeApplyLog;
  }

  /// Ring-cursor introspection for the explorer's ring-integrity oracle:
  /// cells appended into the free ring this node exposes to \p Peer, and
  /// cells consumed from \p Issuer's free ring (pad skips included). At
  /// quiescence a live writer/reader pair must agree.
  std::uint64_t freeWriterTail(rdma::NodeId Peer) const {
    return Peer < FreeWriters.size() && FreeWriters[Peer]
               ? FreeWriters[Peer]->tail()
               : 0;
  }
  std::uint64_t freeReaderHead(rdma::NodeId Issuer) const {
    return Issuer < FreeReaders.size() && FreeReaders[Issuer]
               ? FreeReaders[Issuer]->head()
               : 0;
  }

  /// Canonical hash of this node's cluster-visible state: object state,
  /// applied table, broadcast/consensus cursors, ring heads/tails and
  /// pending-queue shapes. Two nodes of two executions with equal digests
  /// behave identically from here on (given equal pending events).
  std::uint64_t stateDigest();

  // -- Batching (docs/batching.md) ----------------------------------------

  /// Number of locally issued calls accumulated and not yet flushed.
  std::uint32_t batchPending() const { return BatchedPending; }

  /// Forces an immediate flush of all accumulated calls (tests; also the
  /// eager flush on conflicting-call arrival). No-op when nothing is
  /// pending.
  void flushOutgoing();

  // -- Delta propagation (docs/deltas.md) ---------------------------------

  /// Test hook: when set, outgoing *delta* frames are not posted to any
  /// peer (the local fold and the version advance still happen), creating
  /// version gaps at every peer. Full-image frames (anti-entropy,
  /// slot-overflow fallback) still ship, so convergence is restored by
  /// the next anti-entropy round. Only meaningful with Cfg.Delta.Enabled.
  void dropOutgoingDeltasForTest(bool Drop) { DropDeltasForTest = Drop; }

  /// Test/bench hook: installs \p Summary as the cached image of
  /// (\p Group, \p Src) at version \p Seq, as if \p Src had shipped it and
  /// this node applied it -- including the applied-count row, so seeded
  /// clusters still satisfy the applied-table equality oracles. With
  /// \p Src this node it seeds the own summary. Callers must seed all
  /// nodes identically (see HambandCluster::seedReducibleState) and only
  /// while the world is paused/quiescent.
  void seedSummary(unsigned Group, ProcessId Src, const Call &Summary,
                   std::uint64_t Seq);

  /// Delta-frame introspection for tests: frames buffered out-of-order
  /// for (\p Group, \p Src) and the version this node has seen from
  /// \p Src in \p Group (its own version when \p Src is this node).
  std::size_t bufferedDeltaFrames(unsigned Group, ProcessId Src) const {
    return Summaries[Group][Src].Buffered.size();
  }
  std::uint64_t summarySeqSeen(unsigned Group, ProcessId Src) const {
    return Summaries[Group][Src].Seq;
  }

  // -- Membership reconfiguration (docs/reconfig.md) ----------------------

  /// The installed membership epoch (0 on fixed-membership clusters).
  std::uint32_t currentEpoch() const { return CurrentEpoch; }

  /// Closes the current epoch: new update submissions are rejected with
  /// Done(false, WrongEpochValue) until openEpoch(); queries keep being
  /// served. In-flight work is unaffected (the coordinator drains it).
  void closeEpoch();

  /// Reopens submissions in the (possibly new) current epoch.
  void openEpoch();
  bool epochClosed() const { return EpochClosed; }

  /// True when this node holds no unshipped, unapplied or unacknowledged
  /// work: the drain predicate of a membership transition (idle() plus
  /// no in-flight flushes, no queued outbound F-ring records and no
  /// speculative leader entries).
  bool reconfigQuiesced() const;

  /// Cross-node-comparable digest of the replicated state (visible state
  /// plus applied table; unlike stateDigest() it does NOT mix in the node
  /// id or local-only cursors). Drained members of a group must agree.
  std::uint64_t reconfigDigest();

  /// True when \p N is in service under this node's installed membership.
  bool activeNode(rdma::NodeId N) const {
    return Active.empty() || Active[N] != 0;
  }

  /// Donor side of the state transfer: packages everything a joiner needs
  /// (applied table, broadcast cursors, summary images, per-group log
  /// positions \p ConfNext, and the retained irreducible-call log).
  TransferImage buildTransferImage(
      const std::vector<std::uint64_t> &ConfNext) const;

  /// Joiner side: installs a drained donor image wholesale -- applied
  /// table and cursors verbatim, summary caches from the encoded images,
  /// and the irreducible log replayed into the stored state in donor
  /// apply order.
  void absorbTransfer(const TransferImage &Img);

  /// Installs membership \p M on this node: swaps the epoch and active
  /// set, re-tags the F-ring writers and summary writes with \p NewKey,
  /// restricts the failure detector to active peers, and hands each sync
  /// group to its deterministic post-transition leader at log index
  /// \p ConfNext[group]. The caller must have one-sided-written the
  /// encoded membership record into this node's membership slot first;
  /// installMembership verifies it matches.
  void installMembership(const Membership &M, rdma::RegionKey NewKey,
                         const std::vector<std::uint64_t> &ConfNext);

  /// The retained irreducible-call log (Cfg.Reconfig.Enabled only).
  const std::vector<Bytes> &reconfigLog() const {
    return ReconfigLog;
  }

  /// Contiguously received L-ring position of \p Group; after a drain
  /// every member agrees on it, and the coordinator captures it as the
  /// post-transition log index (docs/reconfig.md).
  std::uint64_t confReceivedContig(unsigned Group) const {
    return ConfReceivedContig[Group];
  }

private:
  struct PendingConfRequest {
    /// The call; its Done is empty for a request forwarded by a peer.
    PendingCallPtr Call;
    unsigned Group = 0;
    sim::SimTime SentAt = 0;
    rdma::NodeId SentTo = 0;
    /// Leader-side: give up waiting for permissibility after this time
    /// (0 = not yet assigned).
    sim::SimTime WaitDeadline = 0;
  };

  // Request paths.
  void handleQuery(PendingCallPtr P);
  void handleReduce(PendingCallPtr P);
  void handleFree(PendingCallPtr P);
  void handleConf(PendingCallPtr P);
  /// Completes a client call at its origin: records node.resp_ns,
  /// releases the cluster's outstanding count and runs the callback.
  void complete(PendingCallPtr P, bool Ok, Value Result);
  /// Like complete() without the latency record (calls refused at submit).
  void finish(PendingCall &P, bool Ok, Value Result);
  /// Leader-side processing of a conflicting call, local (\p Origin ==
  /// Self) or forwarded. \p WaitDeadline carries the permissibility-wait
  /// deadline across retries (0 on first arrival).
  void leaderProcessConf(unsigned Group, ProcessId Origin, PendingCallPtr P,
                         sim::SimTime WaitDeadline = 0);
  void retryLeaderQueue(unsigned Group);
  /// Leader-side outcome of a conflicting call.
  enum class ConfOutcome : std::uint8_t {
    /// Rejected: impermissible; terminal for the client.
    Rejected = 0,
    /// Committed by a majority.
    Committed = 1,
    /// This node cannot decide (deposed / epoch changed); the origin
    /// should retry against the current leader.
    Retry = 2,
  };
  /// Answers \p Origin; a local call (\p Origin == Self) completes \p Local.
  void respondConf(ProcessId Origin, RequestId ReqId, ConfOutcome Outcome,
                   PendingCallPtr Local);
  /// Encodes a conflicting-call request for the leader's mailbox.
  Bytes encodeConfRequest(const Call &C) const;
  /// Appends \p Record to the mailbox ring to \p Peer (queued in order
  /// while the ring is full).
  void mailTo(rdma::NodeId Peer, Bytes Record);
  /// Re-sends timed-out redirected calls to the (possibly new) leader.
  void checkConfTimeouts();
  /// Arms the periodic checkConfTimeouts() scan.
  void scheduleConfTick();

  // Poller.
  void schedulePoll();
  void pollOnce();
  unsigned pollFreeRings();
  unsigned pollSummaries();
  unsigned pollConfRings();
  unsigned pollMailboxes();
  unsigned applyPendingFree();
  unsigned applyPendingConf();
  void handleMail(ProcessId From, MailMsg Msg);

  // State helpers.
  void markVisibleDirty() { VisibleDirty = true; }
  void applyToStored(const Call &C);
  bool depsSatisfied(const semantics::DepMap &D) const;
  semantics::DepMap projectDeps(MethodId U) const;
  void bumpConfContig(unsigned Group);

  // Broadcast recovery.
  void onPeerSuspected(rdma::NodeId Peer);
  /// Applies a batch of ring/backup-decoded free calls from \p Issuer,
  /// dropping entries the FreeSeqNext cursor marks as already delivered.
  void enqueueDecodedFree(ProcessId Issuer, std::vector<WireCall> Calls);

  // Batching (docs/batching.md).
  /// Why a flush fired (indexes CtrFlush).
  enum class FlushCause : std::uint8_t { Pipe, Size, Timeout, Conf };
  /// Bookkeeping after a call is enqueued into a batch: counts it,
  /// applies the size trigger, arms the timeout backstop, or flushes
  /// immediately when no flush is in flight (doorbell coalescing).
  void noteBatchedCall();
  void armFlushTimer();
  void flushBatches(FlushCause Cause);
  /// Effective byte cap for the encoded free-batch record.
  std::size_t freeBatchCapBytes() const;

  // Delta propagation (docs/deltas.md).
  /// Encoded size of a SummaryImage with \p NumArgs summary arguments and
  /// \p NumCounts applied-count entries (arithmetic twin of encodeSummary;
  /// lets the ship path size-check huge images without encoding them).
  static std::size_t summaryImageBytes(std::size_t NumArgs,
                                       std::size_t NumCounts);
  /// Methods of summarization group \p G (the applied-count rows a
  /// summary image of the group carries).
  const std::vector<MethodId> &groupMethods(unsigned G) const {
    return GroupMethods[G];
  }
  /// Maximum summary arguments per full-image chunk so the encoded frame
  /// fits one (possibly spanning) F-ring record. Always >= 1.
  std::size_t frameChunkMaxArgs() const;
  /// True when the group's full image at the candidate size can be
  /// shipped at all: it fits the classic summary slot, or it can be
  /// chunked/carried over the F-rings. The reduce path checks this
  /// BEFORE folding, so an unshippable call is rejected (Done(false))
  /// without mutating any replicated state.
  bool fullImageShippable(const Call &Summary, std::size_t NumCounts) const;
  /// Encodes group \p G's image \p Img as Full=1 chunk frames (element-
  /// wise decomposition when the type supports it).
  std::vector<Bytes> encodeFullFrames(unsigned G,
                                     const SummaryImage &Img) const;
  /// Receive path shared by the ring poller and backup-slot recovery.
  /// Returns true when the frame advanced the (group, src) version.
  bool handleSummaryFrame(ProcessId Src, const SummaryDeltaFrame &F);
  /// Joins a delta frame whose FromSeq matches the seen version; false
  /// on a gap (caller buffers the frame).
  bool tryApplyDeltaFrame(ProcessId Src, const SummaryDeltaFrame &F);
  /// Re-tries buffered frames of (\p G, \p Src) until no more apply.
  void retryBufferedFrames(unsigned G, ProcessId Src);
  /// The one install rule for a full summary image of (\p G, \p Src),
  /// whether it arrives through a summary slot, as reassembled chunked
  /// frames or through broadcast recovery: dedups by version, then
  /// retries buffered frames now unblocked by the version jump. False
  /// when the image is not newer than the one installed.
  /// Takes \p Img's summary (leaving the replaced one in its place).
  bool installFullImage(unsigned G, ProcessId Src, SummaryImage &Img);

  rdma::Transport &Fabric;
  rdma::NodeId Self;
  const ObjectType &Type;
  const CoordinationSpec &Spec;
  const MemoryMap &Map;
  HambandConfig Cfg;

  /// Declared before every component that caches pointers into it.
  obs::Registry Stats;
  obs::Counter *CtrCallQuery = nullptr;
  obs::Counter *CtrCallReduce = nullptr;
  obs::Counter *CtrCallFree = nullptr;
  obs::Counter *CtrCallConf = nullptr;
  obs::Counter *CtrReductions = nullptr;
  obs::Counter *CtrDepStallFree = nullptr;
  obs::Counter *CtrDepStallConf = nullptr;
  obs::Counter *CtrRecovered = nullptr;
  obs::Histogram *HistRespNs = nullptr;
  obs::Gauge *GaugePendingFree = nullptr;
  obs::Gauge *GaugePendingConf = nullptr;

  // Object state.
  StatePtr Stored;
  StatePtr VisibleCache;
  bool VisibleDirty = true;
  std::vector<std::vector<std::uint64_t>> Applied; // [proc][method]

  /// groupMethods() per summarization group.
  std::vector<std::vector<MethodId>> GroupMethods;

  /// What this node holds of one source's summary in one summarization
  /// group. The Self row is this node's own summary, which handleReduce
  /// folds into; the other rows are peers' images as last installed.
  struct SummaryRow {
    std::optional<Call> Image;
    /// The image's version: calls folded at the source.
    std::uint64_t Seq = 0;
    /// Out-of-order delta frames parked until the version gap closes.
    std::deque<SummaryDeltaFrame> Buffered;
    /// A partial chunked full image: its version and the chunks so far.
    std::uint64_t AssemblySeq = 0;
    std::vector<std::optional<SummaryImage>> Parts;
    std::uint32_t PartsHave = 0;
  };
  std::vector<std::vector<SummaryRow>> Summaries; // [group][src]

  // Rings. Every F-ring and mailbox record goes out through
  // RingWriter::appendOrQueue, which keeps each ring FIFO when it is full:
  // chunk reassembly and the FreeSeqNext dedup cursor rely on that.
  std::vector<std::unique_ptr<RingReader>> FreeReaders;  // [issuer]
  std::vector<std::unique_ptr<RingWriter>> FreeWriters;  // [peer]
  std::vector<std::unique_ptr<RingReader>> ConfReaders;  // [group]
  /// Record buffer and summary image the pollers reuse, so a traversal
  /// allocates nothing.
  std::vector<std::uint8_t> PollBuf;
  SummaryImage RecvImage;
  std::vector<std::unique_ptr<RingReader>> MailReaders;  // [peer]
  std::vector<std::unique_ptr<RingWriter>> MailWriters;  // [peer]

  // Pending (received, unapplied) calls.
  std::vector<std::deque<WireCall>> FreePending;            // [issuer]
  std::vector<std::map<std::uint64_t, WireCall>> ConfPending; // [group]
  std::vector<std::uint64_t> ConfReceivedContig; // [group]
  std::vector<std::uint64_t> ConfAppliedIdx;     // [group]
  std::vector<std::unordered_set<RequestId>> ConfSeen; // [group] dedup
  /// Conflicting calls this (leader) node appended but not yet applied,
  /// used for speculative permissibility checks.
  std::vector<std::deque<Call>> LeaderSpeculative; // [group]
  /// Entries this leader appended whose commit is still pending, keyed by
  /// a per-append token (a log index can be reused after a leadership
  /// change); a commit re-keys the map node by log index and moves it
  /// into ConfPending.
  std::vector<std::map<std::uint64_t, WireCall>> LeaderUncommitted; // [group]
  std::uint64_t NextAppendToken = 0;
  /// Leader-side queue when the consensus instance is busy/full.
  std::vector<std::deque<PendingConfRequest>> LeaderQueue; // [group]

  // Redirected conflicting calls awaiting a response.
  std::unordered_map<RequestId, PendingConfRequest> AwaitingResponse;

  // Apply-order logs (Cfg.RecordApplyLog only; see confApplyLog()).
  std::vector<std::vector<std::pair<ProcessId, RequestId>>>
      ConfApplyLog;                                  // [group]
  std::vector<std::vector<RequestId>> FreeApplyLog;  // [issuer]

  // Components.
  std::unique_ptr<HeartbeatDetector> Detector;
  std::unique_ptr<ReliableBroadcast> Broadcast;
  std::vector<std::unique_ptr<MuConsensus>> Consensus; // [group]

  // Broadcast bookkeeping.
  std::uint64_t BcastSeqOut = 0;
  /// Per-issuer next-expected broadcast sequence (reader-side dedup
  /// cursor shared by the ring path and backup-slot recovery).
  std::vector<std::uint64_t> FreeSeqNext; // [issuer]

  // Batching state: the calls accumulated for the next flush.
  /// The free calls (encodeCall outputs) and those of them still to be
  /// completed when the flush's writes complete (RespondAfterCompletion).
  std::vector<Bytes> FreeBatch;
  std::vector<PendingCallPtr> FreeBatchDone;
  std::size_t FreeBatchBytes = 0;
  /// What the next flush ships of one summarization group.
  struct GroupOutbound {
    /// Calls folded into the own summary since the last flush. The
    /// version peers were last shipped is the own Seq minus this.
    std::uint32_t Calls = 0;
    std::vector<PendingCallPtr> Done;
    /// Fold of those calls: the next delta frame (deltas only).
    std::optional<Call> Delta;
    /// Delta flushes since the last full image (anti-entropy trigger).
    std::uint32_t FlushesSinceFull = 0;
  };
  std::vector<GroupOutbound> Outbound; // [group]
  std::uint32_t BatchedPending = 0;
  /// When the oldest unflushed call was enqueued (timeout backstop).
  sim::SimTime OldestPendingAt = 0;
  unsigned FlushesInFlight = 0;
  bool FlushTimerArmed = false;
  /// Buffers flushBatches() reuses from flush to flush (it never runs
  /// nested), so a flush does not reallocate them.
  struct {
    std::vector<std::pair<unsigned, Bytes>> SlotWrites;
    SummaryImage Image;
    FlushImage Staged;
  } Scratch;
  /// node.batch.flush.{pipe,size,timeout,conf}, indexed by FlushCause.
  obs::Counter *CtrFlush[4] = {};
  obs::Histogram *HistBatchCalls = nullptr;
  obs::Histogram *HistBatchBytes = nullptr;

  // Delta-propagation counters and test hook.
  bool DropDeltasForTest = false;
  obs::Counter *CtrDeltaOut = nullptr;
  obs::Counter *CtrDeltaIn = nullptr;
  obs::Counter *CtrDeltaDup = nullptr;
  obs::Counter *CtrDeltaGap = nullptr;
  obs::Counter *CtrDeltaDropped = nullptr;
  obs::Counter *CtrDeltaFullOut = nullptr;
  obs::Counter *CtrDeltaFullIn = nullptr;
  obs::Counter *CtrSlotOverflow = nullptr;
  obs::Counter *CtrOversizeReject = nullptr;
  obs::Counter *CtrStageSkipped = nullptr;

  // Membership-reconfiguration state (docs/reconfig.md). All dormant on
  // fixed-membership clusters: epoch 0, empty mask, unprotected key.
  std::uint32_t CurrentEpoch = 0;
  bool EpochClosed = false;
  /// Data-plane region key of the current epoch; tags the F-ring writers
  /// and summary-slot writes so a fence can revoke the whole old data
  /// plane in one sweep.
  rdma::RegionKey DataKey = rdma::UnprotectedRegion;
  /// Installed active set; empty = every provisioned node.
  std::vector<std::uint8_t> Active;
  /// Irreducible calls in local apply order (Cfg.Reconfig.Enabled only):
  /// the donor's transfer log for joiners.
  std::vector<Bytes> ReconfigLog;
  obs::Counter *CtrWrongEpochReject = nullptr;
  obs::Counter *CtrCrossEpochDrop = nullptr;
  obs::Counter *CtrCrossEpochApply = nullptr;
  obs::Counter *CtrEpochInstall = nullptr;

  /// Number of active peers (broadcast fan-out / completion quorum size).
  unsigned activePeerCount() const;

  sim::SimDuration PollBaseCost = 0;
  bool Started = false;
  bool OutOfService = false;

  std::uint64_t NumLocalUpdates = 0;
  std::uint64_t NumAppliedBuffered = 0;
  std::uint64_t NumRecovered = 0;
};

} // namespace runtime
} // namespace hamband

#endif // HAMBAND_RUNTIME_HAMBANDNODE_H
