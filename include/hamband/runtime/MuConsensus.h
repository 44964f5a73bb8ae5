//===- hamband/runtime/MuConsensus.h - Mu-style consensus -------*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Mu-style [7] consensus instance, one per synchronization group
/// (Section 4, "Synchronization"). In the common case the designated
/// leader serializes the group's calls and replicates each entry with a
/// single one-sided write per follower into the L rings; an entry commits
/// once a majority of those writes complete.
///
/// Fault tolerance follows Mu's permission scheme: only the recognized
/// leader holds write permission on a node's L ring. When a follower
/// suspects the leader (heartbeat), it campaigns by writing an epoch
/// proposal into its own single-writer proposal slot on every node. A node
/// that observes a higher-epoch proposal revokes the old leader's write
/// permission *before* granting the candidate's, then acks (with its
/// received-entry count) into its single-writer ack slot on the candidate.
/// Candidates of the same epoch resolve to the lowest id: a node that
/// adopted a higher-id candidate switches (revoke, grant, ack) when the
/// lower id's proposal lands. With a majority of acks the candidate equalizes the logs (reading any
/// missing entries from the most advanced acker -- consumed ring cells
/// keep their bytes until the writer laps) and resumes as leader.
/// Therefore at most one node can ever append to a majority of L rings.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RUNTIME_MUCONSENSUS_H
#define HAMBAND_RUNTIME_MUCONSENSUS_H

#include "hamband/obs/Metrics.h"
#include "hamband/runtime/MemoryMap.h"
#include "hamband/runtime/RingBuffer.h"

#include <functional>
#include <map>
#include <memory>
#include <vector>

namespace hamband {
namespace runtime {

/// One consensus instance (one synchronization group) at one node.
class MuConsensus {
public:
  struct Hooks {
    /// Contiguous count of this group's entries this node has received
    /// (applied + buffered). The leader reports its append index.
    std::function<std::uint64_t()> ReceivedCount;
    /// Delivers a caught-up entry payload into the node's processing path.
    std::function<void(std::uint64_t Index, std::vector<std::uint8_t>)>
        DeliverEntry;
    /// Reads the payload of entry \p Index from this node's own L ring
    /// (consumed cells included). Empty optional when overwritten.
    std::function<bool(std::uint64_t Index, std::vector<std::uint8_t> &)>
        ReadLocalEntry;
    /// Fired when this node adopts a new leader (possibly itself). The
    /// node redirects its L-ring reader and re-posts head feedback.
    std::function<void(rdma::NodeId NewLeader)> LeaderChanged;
    /// Whether the local failure detector currently suspects a node. A
    /// candidate waits for acks from every unsuspected node (single
    /// failure assumption) so no applied entry can be lost.
    std::function<bool(rdma::NodeId)> IsSuspected;
  };

  /// \p ActiveMask restricts the group to a subset of the provisioned
  /// nodes (per-node flags; empty means all active). Inactive nodes are
  /// excluded from replication targets, majorities and campaign quorums
  /// (docs/reconfig.md).
  MuConsensus(rdma::Transport &Fabric, rdma::NodeId Self, unsigned Group,
              rdma::NodeId InitialLeader, const MemoryMap &Map,
              rdma::RegionKey LogKey, Hooks TheHooks,
              std::vector<std::uint8_t> ActiveMask = {});

  rdma::NodeId currentLeader() const { return Leader; }
  bool isLeader() const { return Leader == Self && !CatchingUp; }
  std::uint64_t epoch() const { return Epoch; }
  std::uint64_t nextIndex() const { return NextIndex; }
  unsigned group() const { return Group; }
  rdma::RegionKey logKey() const { return LogKey; }

  /// Must run once on every node after construction: deny L-ring write
  /// permission to everyone but the initial leader.
  void installInitialPermissions();

  /// True when leaderAppend would accept an entry right now (ready leader
  /// and no follower ring is full).
  bool canAppend() const;

  /// Fired once per append: true when committed, false when it cannot be.
  using CommitFn = UniqueFunction<void(bool Committed)>;

  /// Leader-only: replicates \p EntryBytes as the next log entry. The one
  /// buffer is kept in the log cache and framed into every follower's
  /// ring write. \p OnCommitted fires with true once a majority of
  /// follower writes completed (the leader's own copy counts toward the
  /// majority), or false when the append cannot commit (lost leadership).
  /// Returns false without posting anything (and without consuming
  /// \p OnCommitted) when this node is not the (ready) leader or a
  /// follower ring is full (caller retries).
  bool leaderAppend(const Bytes &EntryBytes, CommitFn &&OnCommitted);

  /// Failure-detector hook: if \p Peer is the current leader, campaign.
  void onPeerSuspected(rdma::NodeId Peer);

  /// Replaces the active-node mask (membership installation). Writers to
  /// now-inactive followers are dropped; a newly active follower gains a
  /// writer on the next adoptLeadership (the join protocol always follows
  /// a mask change with one).
  void setActiveMask(std::vector<std::uint8_t> Mask);

  /// True when \p Node participates in this group's quorums.
  bool isActive(rdma::NodeId Node) const {
    return Active.empty() || Active[Node] != 0;
  }

  /// Deterministic leadership handoff during a membership installation:
  /// every member calls this with the same (NewLeader, LogIndex) computed
  /// from the drained, agreed state, so no campaign round is needed. Bumps
  /// the consensus epoch (failing any in-flight appends of the old
  /// leadership), swaps L-ring write permission on this node's own ring,
  /// and -- on the new leader -- resumes appending at \p LogIndex with
  /// writers to every active follower. A no-op epoch-wise when the leader
  /// is unchanged; still (re)creates the writer to a joiner.
  void adoptLeadership(rdma::NodeId NewLeader, std::uint64_t LogIndex);

  /// Periodic poll (on the node's poller loop): observe proposals, grant
  /// permissions and ack; as a candidate, count acks and take over.
  void poll();

  /// Wires consensus metrics into the owning node's registry: mu.proposal,
  /// mu.view_change, mu.append, mu.commit counters plus the mu.campaign_ns
  /// span from campaign start to established leadership. Also attaches
  /// ring metrics to the L-ring writers (current and future).
  void attachStats(obs::Registry &R);

private:
  obs::Registry *Obs = nullptr;
  obs::Counter *CtrProposal = nullptr;
  obs::Counter *CtrViewChange = nullptr;
  obs::Counter *CtrAppend = nullptr;
  obs::Counter *CtrCommit = nullptr;
  obs::Span CampaignSpan;

  void campaign();
  void becomeLeaderAfterCatchUp(std::uint64_t MaxReceived,
                                rdma::NodeId MaxHolder);
  /// Catch-up chain: reads entry \p Index from \p Holder's ring, delivers
  /// it, and continues with the next index from the read's completion
  /// until \p MaxReceived.
  void fetchEntry(std::uint64_t Index, std::uint64_t MaxReceived,
                  rdma::NodeId Holder);
  /// Ends a catch-up at \p LogIndex: the leader is ready to append.
  void finishCatchUp(std::uint64_t LogIndex);
  void replicateMissingToFollowers();
  RingWriter &writerTo(rdma::NodeId Follower);

  rdma::Transport &Fabric;
  rdma::NodeId Self;
  unsigned Group;
  const MemoryMap &Map;
  rdma::RegionKey LogKey;
  Hooks TheHooks;

  unsigned activeCount() const;

  rdma::NodeId Leader;
  std::uint64_t Epoch = 0;
  /// Per-node participation flags; empty = every provisioned node.
  std::vector<std::uint8_t> Active;
  /// Leader state.
  std::uint64_t NextIndex = 0;
  bool CatchingUp = false;
  std::map<rdma::NodeId, std::unique_ptr<RingWriter>> Writers;
  /// Candidate state.
  bool Campaigning = false;
  std::uint64_t CampaignEpoch = 0;
  /// Voter received-counts gathered from ack slots (index = voter).
  std::vector<std::uint64_t> AckReceived;
  std::vector<bool> AckSeen;
  /// Recent entry payloads for laggard replication, pruned as followers
  /// advance.
  std::map<std::uint64_t, Bytes> LogCache;
};

} // namespace runtime
} // namespace hamband

#endif // HAMBAND_RUNTIME_MUCONSENSUS_H
