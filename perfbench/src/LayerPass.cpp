//===- perfbench/src/LayerPass.cpp - Per-layer timings over workload calls ===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Times the public functions of each layer directly, fed with the
/// workload's own generated calls: WireFormat encode/decode, RingWriter /
/// RingReader on both transports, one-sided write post and completion,
/// EventQueue push/pop, ObjectType apply/query/permissible, and obs
/// counter/histogram records. Each figure is the median over several
/// rounds of the per-operation mean.
///
//===----------------------------------------------------------------------===//

#include "LayerPass.h"

#include "hamband/rdma/Fabric.h"
#include "hamband/rdma/ShmTransport.h"
#include "hamband/runtime/RingBuffer.h"
#include "hamband/runtime/WireFormat.h"
#include "hamband/sim/EventQueue.h"
#include "hamband/sim/Simulator.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

using namespace hamband;
using Clock = std::chrono::steady_clock;

namespace {

constexpr unsigned Rounds = 5;

/// Keeps \p V alive as far as the optimiser can tell.
template <typename T> void keep(const T &V) {
  asm volatile("" : : "g"(&V) : "memory");
}

double nsSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - T0).count();
}

double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / static_cast<double>(V.size());
}

/// Median over Rounds of Fn(), which returns nanoseconds per operation.
template <typename FnT> double medianOfRounds(FnT Fn) {
  std::vector<double> V;
  for (unsigned R = 0; R < Rounds; ++R)
    V.push_back(Fn());
  return perfbench::median(V);
}

struct Corpus {
  std::vector<Call> Updates; ///< Effect form (after prepare()).
  std::vector<Call> Queries;
  std::vector<std::vector<std::uint8_t>> Encoded;
};

Corpus buildCorpus(const perfbench::WorkloadDef &W, const ObjectType &Type,
                   std::uint64_t Seed, std::size_t NumCalls) {
  benchlib::WorkloadSpec Spec = perfbench::workloadSpec(W);
  Spec.Seed = Seed;
  std::vector<std::unique_ptr<benchlib::CallGenerator>> Gens;
  for (unsigned N = 0; N < W.Nodes; ++N)
    Gens.push_back(std::make_unique<benchlib::CallGenerator>(Type, Spec, N));
  Corpus C;
  StatePtr S = Type.initialState();
  for (std::size_t I = 0; I < NumCalls; ++I) {
    unsigned N = static_cast<unsigned>(I % W.Nodes);
    Call Raw = Gens[N]->next(N, I + 1);
    if (!Gens[N]->lastWasUpdate()) {
      C.Queries.push_back(Raw);
      continue;
    }
    Call Eff = Type.prepare(*S, Raw);
    if (Type.permissible(*S, Eff))
      Type.apply(*S, Eff);
    C.Updates.push_back(Eff);
  }
  const CoordinationSpec &CS = Type.coordination();
  for (const Call &U : C.Updates) {
    runtime::WireCall WC;
    WC.TheCall = U;
    WC.BcastSeq = U.Req;
    C.Encoded.push_back(runtime::encodeCall(CS, W.Nodes, WC));
  }
  return C;
}

void wirePass(const perfbench::WorkloadDef &W, const ObjectType &Type,
              const Corpus &C, perfbench::Metrics &Out) {
  const CoordinationSpec &CS = Type.coordination();
  const double N = static_cast<double>(C.Updates.size());
  Out["wire.encode_ns"] = medianOfRounds([&]() {
    Clock::time_point T0 = Clock::now();
    for (const Call &U : C.Updates) {
      runtime::WireCall WC;
      WC.TheCall = U;
      std::vector<std::uint8_t> B = runtime::encodeCall(CS, W.Nodes, WC);
      keep(B);
    }
    return nsSince(T0) / N;
  });
  Out["wire.decode_ns"] = medianOfRounds([&]() {
    Clock::time_point T0 = Clock::now();
    for (const std::vector<std::uint8_t> &B : C.Encoded) {
      runtime::WireCall WC;
      bool Ok = runtime::decodeCall(CS, W.Nodes, B.data(), B.size(), WC);
      keep(Ok);
      keep(WC);
    }
    return nsSince(T0) / N;
  });
}

/// Appends the encoded corpus through a ring from node 0 to node 1 in
/// batches of half the ring, draining each batch on the reader.
/// \p Deliver runs between the two (the simulator's event loop).
void ringPass(rdma::Transport &T, const Corpus &C,
              const std::function<void()> &Deliver, double &AppendNs,
              double &ConsumeNs) {
  runtime::RingGeometry Geom{4096, 256};
  const rdma::MemOffset FeedbackOff = Geom.dataBytes();
  runtime::RingWriter Writer(T, 0, 1, 0, FeedbackOff, Geom);
  runtime::RingReader Reader(T, 1, 0, 0, FeedbackOff, Geom);
  const std::size_t Batch = Geom.NumCells / 4;
  std::vector<double> App, Con;
  std::vector<std::uint8_t> Out;
  for (unsigned R = 0; R < Rounds; ++R) {
    double AppSum = 0, ConSum = 0;
    std::size_t Appended = 0, Consumed = 0;
    for (std::size_t I = 0; I < C.Encoded.size(); I += Batch) {
      std::size_t End = std::min(C.Encoded.size(), I + Batch);
      Clock::time_point T0 = Clock::now();
      for (std::size_t J = I; J < End; ++J)
        Appended += Writer.appendRecord(C.Encoded[J]);
      AppSum += nsSince(T0);
      Deliver();
      T0 = Clock::now();
      while (Reader.peek(Out)) {
        Reader.consume();
        ++Consumed;
      }
      ConSum += nsSince(T0);
      Deliver();
    }
    if (Appended)
      App.push_back(AppSum / static_cast<double>(Appended));
    if (Consumed)
      Con.push_back(ConSum / static_cast<double>(Consumed));
  }
  AppendNs = perfbench::median(App);
  ConsumeNs = perfbench::median(Con);
}

/// Post cost and wall-clock post-to-completion latency of a 64-byte
/// one-sided write on \p T, one write in flight at a time (on sim the
/// latter is the host time the simulator takes to deliver it).
void writePass(rdma::Transport &T, const std::function<void()> &Deliver,
               double &PostNs, double &CompleteUs) {
  constexpr unsigned Writes = 2000;
  std::vector<double> Post, Done;
  std::vector<std::uint8_t> Payload(64, 0x5a);
  // Shared with the completion closure, which may outlive this frame if
  // a completion is lost.
  struct Flag {
    std::atomic<bool> Done{false};
    Clock::time_point At;
  };
  auto F = std::make_shared<Flag>();
  for (unsigned I = 0; I < Writes; ++I) {
    F->Done.store(false, std::memory_order_relaxed);
    Clock::time_point T0 = Clock::now();
    T.postWrite(0, 1, (I % 64) * 64, Payload, rdma::UnprotectedRegion,
                [F](rdma::WcStatus) {
                  F->At = Clock::now();
                  F->Done.store(true, std::memory_order_release);
                });
    Post.push_back(nsSince(T0));
    Deliver();
    Clock::time_point Wait0 = Clock::now();
    while (!F->Done.load(std::memory_order_acquire)) {
      if (nsSince(Wait0) > 1e9)
        return; // A lost completion leaves the figures at zero.
      std::this_thread::yield();
    }
    Done.push_back(std::chrono::duration<double, std::micro>(F->At - T0)
                       .count());
  }
  PostNs = mean(Post);
  CompleteUs = mean(Done);
}

void eventQueuePass(const Corpus &C, perfbench::Metrics &Out) {
  // Push times follow the call stream: one event per call, spread over a
  // few microseconds like a node's pending completions and timers.
  const std::size_t N = C.Encoded.size() + C.Queries.size();
  Out["sim.eventq_push_pop_ns"] = medianOfRounds([&]() {
    sim::EventQueue Q;
    std::uint64_t Fired = 0;
    Clock::time_point T0 = Clock::now();
    for (std::size_t I = 0; I < N; ++I)
      Q.push(static_cast<sim::SimTime>((I * 7919) % 4096),
             [&Fired]() { ++Fired; });
    sim::Event E;
    while (Q.pop(E))
      E.Fn();
    double Ns = nsSince(T0) / static_cast<double>(N);
    keep(Fired);
    return Ns;
  });
}

void typesPass(const ObjectType &Type, const Corpus &C,
               perfbench::Metrics &Out) {
  Out["types.apply_ns"] = medianOfRounds([&]() {
    StatePtr S = Type.initialState();
    Clock::time_point T0 = Clock::now();
    for (const Call &U : C.Updates)
      Type.apply(*S, U);
    double Ns = nsSince(T0) / static_cast<double>(C.Updates.size());
    keep(S);
    return Ns;
  });
  StatePtr Final = Type.initialState();
  for (const Call &U : C.Updates)
    Type.apply(*Final, U);
  Out["types.query_ns"] = C.Queries.empty() ? 0 : medianOfRounds([&]() {
    Value Acc = 0;
    Clock::time_point T0 = Clock::now();
    for (const Call &Q : C.Queries)
      Acc += Type.query(*Final, Q);
    double Ns = nsSince(T0) / static_cast<double>(C.Queries.size());
    keep(Acc);
    return Ns;
  });
  // Permissibility against the evolving state, as the origin checks it.
  Out["types.permissible_ns"] = medianOfRounds([&]() {
    StatePtr S = Type.initialState();
    double Ns = 0;
    for (const Call &U : C.Updates) {
      Clock::time_point T0 = Clock::now();
      bool Ok = Type.permissible(*S, U);
      Ns += nsSince(T0);
      if (Ok)
        Type.apply(*S, U);
    }
    return Ns / static_cast<double>(C.Updates.size());
  });
}

void obsPass(const Corpus &C, perfbench::Metrics &Out) {
  const std::size_t N = C.Encoded.size() + C.Queries.size();
  obs::Registry Reg;
  obs::Counter &Ctr = Reg.counter("perfbench.counter");
  obs::Histogram &Hist = Reg.histogram("perfbench.hist");
  Out["obs.counter_add_ns"] = medianOfRounds([&]() {
    Clock::time_point T0 = Clock::now();
    for (std::size_t I = 0; I < N; ++I)
      Ctr.add();
    return nsSince(T0) / static_cast<double>(N);
  });
  Out["obs.hist_record_ns"] = medianOfRounds([&]() {
    Clock::time_point T0 = Clock::now();
    for (std::size_t I = 0; I < C.Encoded.size(); ++I)
      Hist.record(C.Encoded[I].size() * 97 + I);
    return nsSince(T0) / static_cast<double>(C.Encoded.size());
  });
  keep(Ctr);
  keep(Hist);
}

} // namespace

void perfbench::runLayerPass(const WorkloadDef &W, const ObjectType &Type,
                             std::uint64_t Seed, std::size_t NumCalls,
                             Metrics &Out) {
  Corpus C = buildCorpus(W, Type, Seed, NumCalls);
  wirePass(W, Type, C, Out);
  typesPass(Type, C, Out);
  eventQueuePass(C, Out);
  obsPass(C, Out);

  constexpr std::size_t MemBytes = 4u << 20;
  {
    sim::Simulator Sim;
    rdma::Fabric F(Sim, 2, rdma::NetworkModel(), MemBytes);
    auto Deliver = [&Sim]() { Sim.run(); };
    ringPass(F, C, Deliver, Out["ring.append_ns.sim"],
             Out["ring.consume_ns.sim"]);
    if (W.Transport == rdma::TransportKind::Sim)
      writePass(F, Deliver, Out["rdma.post_write_ns"],
                Out["rdma.write_complete_us"]);
  }
  {
    rdma::ShmTransport S(2, rdma::NetworkModel(), MemBytes);
    auto Deliver = []() {};
    ringPass(S, C, Deliver, Out["ring.append_ns.shm"],
             Out["ring.consume_ns.shm"]);
    if (W.Transport == rdma::TransportKind::Shm)
      writePass(S, Deliver, Out["rdma.post_write_ns"],
                Out["rdma.write_complete_us"]);
    S.shutdown();
  }
}
