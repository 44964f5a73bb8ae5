//===- rdma/Fabric.cpp - Simulated RDMA fabric ----------------------------==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/rdma/Fabric.h"

#include <cassert>

using namespace hamband;
using namespace hamband::rdma;

namespace {
/// Key identifying a (writer, region) permission entry.
using PermKey = std::pair<NodeId, RegionKey>;
} // namespace

struct Fabric::NodeCtx {
  explicit NodeCtx(std::size_t MemBytes) : Mem(MemBytes) {}

  MemoryRegion Mem;
  bool Alive = true;
  sim::SimTime CpuFreeAt[Fabric::NumCpuLanes] = {};
  RecvHandler OnRecv;
  /// Explicit permission entries; absence means "allowed".
  std::map<PermKey, bool> WritePerm;
};

Fabric::Fabric(sim::Simulator &Sim, unsigned NumNodes, NetworkModel Model,
               std::size_t MemBytesPerNode)
    : Sim(Sim), Model(Model) {
  assert(NumNodes >= 1 && "a cluster needs at least one node");
  Nodes.reserve(NumNodes);
  for (unsigned I = 0; I < NumNodes; ++I)
    Nodes.push_back(std::make_unique<NodeCtx>(MemBytesPerNode));
  ChannelLast.assign(static_cast<std::size_t>(NumNodes) * NumNodes, 0);
}

Fabric::~Fabric() = default;

void Fabric::setObs(obs::Registry &R) {
  CtrWrite = &R.counter("rdma.write");
  CtrRead = &R.counter("rdma.read");
  CtrSend = &R.counter("rdma.send");
  CtrBytes = &R.counter("rdma.bytes_written");
  HistWireNs = &R.histogram("rdma.wire_ns");
}

Fabric::NodeCtx &Fabric::node(NodeId Id) {
  assert(Id < Nodes.size() && "node id out of range");
  return *Nodes[Id];
}

const Fabric::NodeCtx &Fabric::node(NodeId Id) const {
  assert(Id < Nodes.size() && "node id out of range");
  return *Nodes[Id];
}

MemoryRegion &Fabric::memory(NodeId Node) { return node(Node).Mem; }

const MemoryRegion &Fabric::memory(NodeId Node) const {
  return node(Node).Mem;
}

sim::SimTime Fabric::channelDeliveryTime(NodeId Src, NodeId Dst,
                                         sim::SimDuration Wire) {
  std::size_t Idx = static_cast<std::size_t>(Src) * Nodes.size() + Dst;
  sim::SimTime At = Sim.now() + Wire;
  if (At < ChannelLast[Idx])
    At = ChannelLast[Idx];
  ChannelLast[Idx] = At;
  return At;
}

void Fabric::runOnCpu(NodeId Node, sim::SimDuration Cost, TaskFn Fn,
                      unsigned Lane) {
  assert(Lane < NumCpuLanes && "bad cpu lane");
  NodeCtx &Ctx = node(Node);
  if (!Ctx.Alive)
    return;
  sim::SimTime Start = std::max(Sim.now(), Ctx.CpuFreeAt[Lane]);
  Ctx.CpuFreeAt[Lane] = Start + Cost;
  sim::SimTime Done = Ctx.CpuFreeAt[Lane];
  // A node that crashes before the task runs drops it: the event still
  // fires, but its guard skips the closure.
  Sim.scheduleAt(Done, {sim::EventKind::CpuTask, Node}, std::move(Fn),
                 &Ctx.Alive);
}

void Fabric::postWrite(NodeId Src, NodeId Dst, MemOffset DstOff,
                       const Bytes &Data, RegionKey Key,
                       CompletionFn OnComplete, unsigned Lane) {
  assert(Dst < Nodes.size() && "destination out of range");
  ++WritesPosted;
  BytesWritten += Data.size();
  if (CtrWrite) {
    CtrWrite->add();
    CtrBytes->add(Data.size());
  }
  runOnCpu(
      Src, Model.PostCpu,
      [this, Src, Dst, DstOff, Payload = Data, Key, Lane,
       OnComplete = std::move(OnComplete)]() mutable {
        sim::SimDuration Wire = Model.writeWire(Payload.size());
        if (Hook)
          Wire += Hook->onOneSidedOp(Src, Dst, /*IsWrite=*/true,
                                     Payload.size())
                      .ExtraDelay;
        if (HistWireNs)
          HistWireNs->record(Wire);
        sim::SimTime DeliverAt = channelDeliveryTime(Src, Dst, Wire);
        Sim.scheduleAt(DeliverAt,
                       {sim::EventKind::OneSidedDelivery, Dst, Src},
                       [this, Src, Dst, DstOff, Payload = std::move(Payload),
                        Key, Lane,
                        OnComplete = std::move(OnComplete)]() mutable {
          // Permission is checked by the responder NIC at access time. A
          // crashed node's NIC still serves one-sided traffic.
          WcStatus Status = WcStatus::Success;
          if (!hasWritePermission(Dst, Src, Key))
            Status = WcStatus::AccessError;
          else
            Nodes[Dst]->Mem.write(DstOff, Payload.data(), Payload.size());
          if (!OnComplete)
            return;
          Sim.schedule(Model.CompletionDelay,
                       {sim::EventKind::Completion, Src, Dst},
                       [this, Src, Status, Lane,
                        OnComplete = std::move(OnComplete)]() mutable {
                         runOnCpu(Src, Model.PollCpu,
                                  [Status, OnComplete = std::move(
                                               OnComplete)]() {
                                    OnComplete(Status);
                                  },
                                  Lane);
                       });
        });
      },
      Lane);
}

void Fabric::postRead(NodeId Src, NodeId Dst, MemOffset DstOff,
                      std::size_t Len, ReadCompletionFn OnComplete,
                      unsigned Lane) {
  assert(Dst < Nodes.size() && "destination out of range");
  assert(OnComplete && "a read without a completion is useless");
  ++ReadsPosted;
  if (CtrRead)
    CtrRead->add();
  runOnCpu(
      Src, Model.PostCpu,
      [this, Src, Dst, DstOff, Len, Lane,
       OnComplete = std::move(OnComplete)]() mutable {
        sim::SimDuration Wire = Model.readWire(Len);
        if (Hook)
          Wire += Hook->onOneSidedOp(Src, Dst, /*IsWrite=*/false, Len)
                      .ExtraDelay;
        if (HistWireNs)
          HistWireNs->record(Wire);
        sim::SimTime SampleAt = channelDeliveryTime(Src, Dst, Wire);
        Sim.scheduleAt(SampleAt, {sim::EventKind::ReadSample, Dst, Src},
                       [this, Src, Dst, DstOff, Len, Lane,
                        OnComplete = std::move(OnComplete)]() mutable {
          std::vector<std::uint8_t> Data = Nodes[Dst]->Mem.slice(DstOff, Len);
          Sim.schedule(Model.CompletionDelay,
                       {sim::EventKind::Completion, Src, Dst},
                       [this, Src, Lane, Data = std::move(Data),
                        OnComplete = std::move(OnComplete)]() mutable {
                         runOnCpu(Src, Model.PollCpu,
                                  [Data = std::move(Data),
                                   OnComplete = std::move(
                                       OnComplete)]() mutable {
                                    OnComplete(WcStatus::Success,
                                               std::move(Data));
                                  },
                                  Lane);
                       });
        });
      },
      Lane);
}

void Fabric::send(NodeId Src, NodeId Dst, const Bytes &Msg,
                  CompletionFn OnComplete, unsigned Lane) {
  assert(Dst < Nodes.size() && "destination out of range");
  ++SendsPosted;
  if (CtrSend)
    CtrSend->add();
  runOnCpu(
      Src, Model.MsgStackSendCpu,
      [this, Src, Dst, Payload = Msg, Lane,
       OnComplete = std::move(OnComplete)]() mutable {
        sim::SimDuration Wire = Model.msgWire(Payload.size());
        FaultDecision Fault;
        if (Hook)
          Fault = Hook->onTwoSidedMsg(Src, Dst, Payload.size());
        // A dropped or duplicated message completes normally at the
        // sender either way (TCP-like: the sender cannot tell).
        unsigned Copies = Fault.Drop ? 0 : 1 + Fault.Duplicates;
        for (unsigned I = 0; I < Copies; ++I) {
          sim::SimTime DeliverAt =
              channelDeliveryTime(Src, Dst, Wire + Fault.ExtraDelay);
          Sim.scheduleAt(DeliverAt,
                         {sim::EventKind::TwoSidedDelivery, Dst, Src},
                         [this, Src, Dst, Payload]() {
            NodeCtx &Ctx = *Nodes[Dst];
            if (!Ctx.Alive || !Ctx.OnRecv)
              return; // Dropped at a dead receiver.
            runOnCpu(
                Dst, Model.MsgStackRecvCpu,
                [&Ctx, Src, Payload]() { Ctx.OnRecv(Src, Payload); },
                LanePoller);
          });
        }
        if (OnComplete)
          runOnCpu(
              Src, Model.PollCpu,
              [OnComplete = std::move(OnComplete)]() {
                OnComplete(WcStatus::Success);
              },
              Lane);
      },
      Lane);
}

void Fabric::setRecvHandler(NodeId Node, RecvHandler Handler) {
  node(Node).OnRecv = std::move(Handler);
}

RegionKey Fabric::createRegionKey() { return NextRegionKey++; }

void Fabric::setWritePermission(NodeId Target, NodeId Writer, RegionKey Key,
                                bool Allowed) {
  node(Target).WritePerm[PermKey(Writer, Key)] = Allowed;
}

bool Fabric::hasWritePermission(NodeId Target, NodeId Writer,
                                RegionKey Key) const {
  if (Key == UnprotectedRegion)
    return true;
  const NodeCtx &Ctx = node(Target);
  auto It = Ctx.WritePerm.find(PermKey(Writer, Key));
  return It == Ctx.WritePerm.end() ? true : It->second;
}

void Fabric::crash(NodeId Node) { node(Node).Alive = false; }

bool Fabric::isAlive(NodeId Node) const { return node(Node).Alive; }
