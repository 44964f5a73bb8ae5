//===- tests/ShmRingStressTests.cpp - Concurrent ring stress ------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
// Genuinely concurrent stress for the single-writer ring over the
// shared-memory transport: a real writer thread and a real reader thread
// hammer one ring through wraps, padding records and multi-cell spans,
// and the reader must observe exactly the appended payload sequence, in
// order, with no torn or phantom records. Run under
// HAMBAND_SANITIZE=thread in CI (scripts/ci.sh), where TSan checks the
// acquire/release discipline of the concurrent MemoryRegion and the
// canary/header-reread protocol of RingReader::readRecordAt.
//
// WriteWokenReaderKeepsUpAcrossLaps drives both ends from write-woken
// timers on their node threads instead, so it also exercises the shm
// doorbell handshake (a peer's write rings the destination's bell; a
// parked worker is woken without a lost wakeup).
//
// PauseResumeUnderLoad pauses and resumes the world hundreds of times
// under such a stream, pinning the pause handshake: a paused node starts
// no task and pauseWorld() waits out the task a node is running.
//
// The torn-write tests below craft partial span images directly in the
// reader's memory -- exactly what a writer crash mid-span leaves behind
// under the transport contract (bytes land in increasing address order,
// the span canary last) -- and pin that such records are never delivered.
//===----------------------------------------------------------------------===//

#include "hamband/rdma/ShmTransport.h"
#include "hamband/runtime/RingBuffer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <thread>

using namespace hamband;
using namespace hamband::rdma;
using namespace hamband::runtime;

namespace {

constexpr MemOffset DataOff = 4096;
constexpr MemOffset FeedbackOff = 64 * 1024;

RingGeometry smallGeom() {
  RingGeometry G;
  G.NumCells = 16;
  G.CellSize = 48;
  return G;
}

/// The payload for record \p Seq: length varies with the sequence number
/// so the stream mixes single-cell records with spans of up to 7 cells
/// (forcing frequent wrap padding on a 16-cell ring), and every byte is a
/// function of (Seq, position) so tearing is detectable.
std::vector<std::uint8_t> payloadFor(std::uint64_t Seq,
                                     const RingGeometry &G) {
  std::size_t Len = 8 + (Seq * 37) % (G.maxRecordPayload() - 8);
  std::vector<std::uint8_t> P(Len);
  std::memcpy(P.data(), &Seq, 8);
  for (std::size_t I = 8; I < Len; ++I)
    P[I] = static_cast<std::uint8_t>((Seq * 31 + I) & 0xFF);
  return P;
}

struct ShmRingStress : ::testing::Test {
  RingGeometry Geom = smallGeom();
  ShmTransport T{2, NetworkModel(), 1u << 20};
};

} // namespace

TEST_F(ShmRingStress, InOrderExactDeliveryAcrossManyLaps) {
  // Sized so the 16-cell ring laps hundreds of times, and slow enough
  // machines (1 core, TSan) still finish comfortably.
  const std::uint64_t NumRecords = 2000;
  RingWriter W(T, /*Writer=*/0, /*Reader=*/1, DataOff, FeedbackOff, Geom);
  RingReader R(T, /*Reader=*/1, /*Writer=*/0, DataOff, FeedbackOff, Geom);

  std::atomic<bool> WriterFailed{false};
  std::thread Writer([&]() {
    auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    for (std::uint64_t Seq = 0; Seq < NumRecords;) {
      if (W.appendRecord(payloadFor(Seq, Geom))) {
        ++Seq;
        continue;
      }
      // Ring full: wait for head feedback to free cells.
      if (std::chrono::steady_clock::now() > Deadline) {
        WriterFailed = true;
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  std::uint64_t Received = 0;
  std::uint64_t Mismatches = 0;
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  std::vector<std::uint8_t> Got;
  while (Received < NumRecords &&
         std::chrono::steady_clock::now() < Deadline) {
    if (!R.peek(Got)) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      continue;
    }
    if (Got != payloadFor(Received, Geom))
      ++Mismatches;
    R.consume();
    ++Received;
  }
  Writer.join();
  EXPECT_FALSE(WriterFailed.load());
  EXPECT_EQ(Received, NumRecords);
  EXPECT_EQ(Mismatches, 0u) << "torn or out-of-order records delivered";
  // Quiescent ring: nothing phantom left behind.
  EXPECT_FALSE(R.peek(Got));
}

TEST_F(ShmRingStress, WriteWokenReaderKeepsUpAcrossLaps) {
  // Both ends run on their node threads as write-woken timers with a 1 s
  // backstop, as the runtime's poller and ring-full retries do: the
  // reader's traversal wakes on the writer's record writes, and the
  // writer's ring-full wait wakes on the reader's head feedback. The
  // stream never needs the backstop, so a round that fires at it marks a
  // lost wakeup, and hundreds of laps must finish far below laps x 1 s.
  const std::uint64_t NumRecords = 2000;
  const sim::SimDuration Backstop = sim::millis(1000);
  RingWriter W(T, /*Writer=*/0, /*Reader=*/1, DataOff, FeedbackOff, Geom);
  RingReader R(T, /*Reader=*/1, /*Writer=*/0, DataOff, FeedbackOff, Geom);

  std::atomic<std::uint64_t> Received{0};
  std::atomic<std::uint64_t> Mismatches{0};
  std::atomic<unsigned> BackstopFires{0};
  std::uint64_t FullWaits = 0; // Writer thread only.
  std::uint64_t Sent = 0;      // Writer thread only.
  sim::SimTime ReaderArmedAt = 0;
  sim::SimTime WriterArmedAt = 0;
  auto Arm = [&](NodeId Node, sim::SimTime &ArmedAt,
                 std::function<void()> &Round) {
    ArmedAt = T.now();
    T.runAfterOrWrite(Node, Backstop, Round);
  };
  auto CheckWoken = [&](sim::SimTime ArmedAt) {
    if (T.now() - ArmedAt >= Backstop)
      ++BackstopFires;
  };
  std::function<void()> ReadRound;
  std::function<void()> WriteRound;
  ReadRound = [&]() {
    CheckWoken(ReaderArmedAt);
    std::vector<std::uint8_t> Got;
    std::uint64_t N = Received.load();
    for (; R.peek(Got); ++N) {
      if (Got != payloadFor(N, Geom))
        ++Mismatches;
      R.consume();
    }
    Received = N;
    if (N < NumRecords)
      Arm(1, ReaderArmedAt, ReadRound);
  };
  WriteRound = [&]() {
    CheckWoken(WriterArmedAt);
    while (Sent < NumRecords && W.appendRecord(payloadFor(Sent, Geom)))
      ++Sent;
    if (Sent == NumRecords)
      return;
    ++FullWaits; // Ring full: wait for the reader's head feedback.
    Arm(0, WriterArmedAt, WriteRound);
  };

  const auto Bound = std::chrono::seconds(20);
  auto Start = std::chrono::steady_clock::now();
  Arm(1, ReaderArmedAt, ReadRound);
  WriterArmedAt = T.now();
  T.callOn(0, WriteRound);
  while (Received.load() < NumRecords &&
         std::chrono::steady_clock::now() - Start < Bound)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  T.shutdown(); // The rounds capture this frame.

  std::uint64_t Laps = W.tail() / Geom.NumCells;
  EXPECT_EQ(Received.load(), NumRecords)
      << "stalled after " << Laps << " laps, " << FullWaits
      << " ring-full waits";
  EXPECT_EQ(Mismatches.load(), 0u) << "torn or out-of-order records";
  EXPECT_EQ(BackstopFires.load(), 0u) << "lost wakeups";
  EXPECT_GE(Laps, 200u);
  EXPECT_GE(FullWaits, Laps / 2) << "the stream never waited on feedback";
}

TEST_F(ShmRingStress, PauseResumeUnderLoad) {
  // The write-woken ring stream, with every round also posting a task to
  // the peer node and one to its own node (which runs inline), while this
  // thread pauses and resumes the world hundreds of times. Inside every
  // pause no task may be mid-flight: each node's in-task count reads 0
  // and the ring cursors, read twice, have not moved. The cursors are
  // plain fields of the node threads, so under TSan a pause that let a
  // task run would also show up as a data race.
  const unsigned NumPauses = 400;
  // Lost wakeups are WriteWokenReaderKeepsUpAcrossLaps' concern; a short
  // backstop keeps the drain after the last pause short.
  const sim::SimDuration Backstop = sim::millis(2);
  RingWriter W(T, /*Writer=*/0, /*Reader=*/1, DataOff, FeedbackOff, Geom);
  RingReader R(T, /*Reader=*/1, /*Writer=*/0, DataOff, FeedbackOff, Geom);

  std::atomic<int> InTask[2] = {0, 0};
  std::atomic<std::uint64_t> Sent{0};
  std::atomic<std::uint64_t> Received{0};
  std::atomic<std::uint64_t> Mismatches{0};
  std::atomic<std::uint64_t> SideTasks{0};
  std::atomic<bool> StopStream{false};
  std::atomic<bool> WriterDone{false};
  std::atomic<bool> ReaderDone{false};
  // Runs \p Body as node \p Node's task body, counted in InTask, and
  // posts a counted side task to each node.
  auto Counted = [&](NodeId Node, const std::function<void()> &Body) {
    ++InTask[Node];
    Body();
    for (NodeId To : {NodeId(0), NodeId(1)})
      T.callOn(To, [&InTask, &SideTasks, To]() {
        ++InTask[To];
        ++SideTasks;
        --InTask[To];
      });
    --InTask[Node];
  };
  std::function<void()> ReadRound;
  std::function<void()> WriteRound;
  ReadRound = [&]() {
    Counted(1, [&]() {
      std::vector<std::uint8_t> Got;
      std::uint64_t N = Received.load();
      for (; R.peek(Got); ++N) {
        if (Got != payloadFor(N, Geom))
          ++Mismatches;
        R.consume();
      }
      Received = N;
      if (WriterDone && N == Sent)
        ReaderDone = true;
      else
        T.runAfterOrWrite(1, Backstop, ReadRound);
    });
  };
  WriteRound = [&]() {
    Counted(0, [&]() {
      std::uint64_t N = Sent.load();
      while (!StopStream && W.appendRecord(payloadFor(N, Geom)))
        Sent = ++N;
      if (StopStream)
        WriterDone = true;
      else
        T.runAfterOrWrite(0, Backstop, WriteRound);
    });
  };

  const auto Bound = std::chrono::seconds(60);
  auto Start = std::chrono::steady_clock::now();
  T.runAfterOrWrite(1, Backstop, ReadRound);
  T.callOn(0, WriteRound);
  unsigned Pauses = 0, Busy = 0, Moved = 0;
  std::uint64_t SentAtFirstPause = 0;
  for (; Pauses < NumPauses &&
         std::chrono::steady_clock::now() - Start < Bound;
       ++Pauses) {
    T.pauseWorld();
    Busy += InTask[0].load() != 0 || InTask[1].load() != 0;
    std::uint64_t Tail = W.tail(), Head = R.head();
    if (Pauses == 0)
      SentAtFirstPause = Sent.load();
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    Moved += W.tail() != Tail || R.head() != Head;
    T.resumeWorld();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::uint64_t SentAtLastPause = Sent.load();
  StopStream = true;
  // The writer's next round sees the stop: it is re-armed on the
  // reader's head feedback, which the reader sends as it drains.
  while (!ReaderDone && std::chrono::steady_clock::now() - Start < Bound)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  T.shutdown(); // The rounds capture this frame.

  EXPECT_TRUE(ReaderDone.load()) << "stream did not drain within the bound";
  EXPECT_EQ(Pauses, NumPauses);
  EXPECT_EQ(Busy, 0u) << "pauses with a task mid-flight";
  EXPECT_EQ(Moved, 0u) << "ring cursors moved inside a pause";
  EXPECT_EQ(Received.load(), Sent.load());
  EXPECT_EQ(Mismatches.load(), 0u) << "torn or out-of-order records";
  EXPECT_GT(SentAtLastPause, SentAtFirstPause + Geom.NumCells)
      << "the stream made no progress across the pauses";
  EXPECT_GT(SideTasks.load(), 0u);
}

TEST_F(ShmRingStress, TornSpanWithoutCanaryIsNeverDelivered) {
  RingReader R(T, /*Reader=*/1, /*Writer=*/0, DataOff, FeedbackOff, Geom);
  MemoryRegion &Mem = T.memory(1);

  // A 3-cell span record for head index 0 whose image stops mid-payload:
  // exactly what a writer crash leaves under the increasing-address,
  // canary-last write contract. Header is fully present and plausible.
  const std::uint32_t SpanCells = 3;
  const std::uint32_t Len =
      SpanCells * Geom.CellSize - RingGeometry::HeaderBytes - 1;
  const std::uint64_t Seq = 0;
  std::vector<std::uint8_t> Image(RingGeometry::HeaderBytes + Len / 2);
  std::memcpy(Image.data(), &Len, 4);
  std::memcpy(Image.data() + 4, &Seq, 8);
  for (std::size_t I = RingGeometry::HeaderBytes; I < Image.size(); ++I)
    Image[I] = 0xEE;
  Mem.write(DataOff, Image.data(), Image.size());

  std::vector<std::uint8_t> Got;
  EXPECT_FALSE(R.peek(Got)) << "accepted a span with no canary";

  // Even a payload byte of 1 in the cell BEFORE the canary position must
  // not be mistaken for the span canary.
  std::uint8_t One = 1;
  Mem.write(DataOff + SpanCells * Geom.CellSize - 2, &One, 1);
  EXPECT_FALSE(R.peek(Got)) << "payload byte mistaken for a canary";

  // Completing the image -- full payload, then the canary last -- makes
  // the record deliverable.
  std::vector<std::uint8_t> Full(RingGeometry::HeaderBytes + Len);
  std::memcpy(Full.data(), &Len, 4);
  std::memcpy(Full.data() + 4, &Seq, 8);
  for (std::size_t I = RingGeometry::HeaderBytes; I < Full.size(); ++I)
    Full[I] = static_cast<std::uint8_t>(I & 0xFF);
  Mem.write(DataOff, Full.data(), Full.size());
  One = 1;
  Mem.write(DataOff + SpanCells * Geom.CellSize - 1, &One, 1);
  ASSERT_TRUE(R.peek(Got));
  EXPECT_EQ(Got.size(), Len);
  EXPECT_EQ(Got[0], static_cast<std::uint8_t>(RingGeometry::HeaderBytes));
}

TEST_F(ShmRingStress, StaleInteriorByteIsNeverTakenForACanary) {
  // A spanning record leaves payload bytes at the last byte of its
  // interior cells. A lap later, a single-cell record there whose header
  // has landed but whose canary has not must not be delivered because
  // the old interior byte at its canary position happens to read 1.
  RingWriter W(T, /*Writer=*/0, /*Reader=*/1, DataOff, FeedbackOff, Geom);
  RingReader R(T, /*Reader=*/1, /*Writer=*/0, DataOff, FeedbackOff, Geom);
  std::vector<std::uint8_t> Spanning(2 * Geom.CellSize, 0xAB);
  ASSERT_GT(Geom.cellsFor(Spanning.size()), 1u);
  Spanning[Geom.CellSize - RingGeometry::HeaderBytes - 1] = 1; // Cell 0's end.
  ASSERT_TRUE(W.appendRecord(Spanning));
  std::vector<std::uint8_t> Got;
  ASSERT_TRUE(R.peek(Got));
  ASSERT_EQ(Got, Spanning);
  R.consume();
  // Single-cell records fill the rest of the lap.
  const std::vector<std::uint8_t> Small(4, 0x11);
  while (W.tail() < Geom.NumCells) {
    ASSERT_TRUE(W.appendRecord(Small));
    ASSERT_TRUE(R.peek(Got));
    R.consume();
  }
  ASSERT_EQ(R.head(), Geom.NumCells);

  // The next lap's first record, back at cell 0: header only.
  const std::uint32_t Len = 4;
  const std::uint64_t Seq = Geom.NumCells;
  std::uint8_t Header[RingGeometry::HeaderBytes];
  std::memcpy(Header, &Len, 4);
  std::memcpy(Header + 4, &Seq, 8);
  T.memory(1).write(DataOff, Header, sizeof(Header));
  EXPECT_FALSE(R.peek(Got)) << "a stale interior byte was taken for a canary";
}

TEST_F(ShmRingStress, StaleLapSequenceIsRejected) {
  RingReader R(T, /*Reader=*/1, /*Writer=*/0, DataOff, FeedbackOff, Geom);
  MemoryRegion &Mem = T.memory(1);

  // A complete, canaried single-cell record -- but for a PREVIOUS lap
  // (sequence 0 while the reader expects NumCells + 0). The sequence
  // check must reject it even though the canary validates.
  R.setHead(Geom.NumCells); // Reader is one lap ahead.
  const std::uint32_t Len = 16;
  const std::uint64_t StaleSeq = 0;
  std::vector<std::uint8_t> Image(Geom.CellSize, 0);
  std::memcpy(Image.data(), &Len, 4);
  std::memcpy(Image.data() + 4, &StaleSeq, 8);
  Image[Geom.CellSize - 1] = 1;
  Mem.write(DataOff, Image.data(), Image.size());

  std::vector<std::uint8_t> Got;
  EXPECT_FALSE(R.peek(Got)) << "accepted a stale lap's record";

  // The same image with the expected sequence number is delivered.
  const std::uint64_t FreshSeq = Geom.NumCells;
  std::memcpy(Image.data() + 4, &FreshSeq, 8);
  Mem.write(DataOff, Image.data(), Image.size());
  ASSERT_TRUE(R.peek(Got));
  EXPECT_EQ(Got.size(), Len);
}

TEST_F(ShmRingStress, WriterCrashMidStreamLeavesCleanPrefix) {
  const std::uint64_t NumRecords = 600;
  const std::uint64_t CrashAfter = 150;
  RingWriter W(T, /*Writer=*/0, /*Reader=*/1, DataOff, FeedbackOff, Geom);
  RingReader R(T, /*Reader=*/1, /*Writer=*/0, DataOff, FeedbackOff, Geom);

  std::atomic<bool> StopWriter{false};
  std::thread Writer([&]() {
    for (std::uint64_t Seq = 0;
         Seq < NumRecords && !StopWriter.load(std::memory_order_acquire);) {
      // After the transport-level crash the posts are silently dropped --
      // the writer's CPU is gone -- so this loop just runs out the clock.
      if (W.appendRecord(payloadFor(Seq, Geom)))
        ++Seq;
      else
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  std::uint64_t Received = 0;
  std::uint64_t Mismatches = 0;
  bool Crashed = false;
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  auto QuietSince = std::chrono::steady_clock::now();
  std::vector<std::uint8_t> Got;
  while (std::chrono::steady_clock::now() < Deadline) {
    if (!Crashed && Received >= CrashAfter) {
      T.crash(0); // Concurrent with the writer's inline posts.
      Crashed = true;
    }
    if (R.peek(Got)) {
      if (Got != payloadFor(Received, Geom))
        ++Mismatches;
      R.consume();
      ++Received;
      QuietSince = std::chrono::steady_clock::now();
      continue;
    }
    if (Crashed && std::chrono::steady_clock::now() - QuietSince >
                       std::chrono::milliseconds(300))
      break; // The crashed writer delivered its last record.
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  StopWriter.store(true, std::memory_order_release);
  Writer.join();

  // Everything delivered is an exact in-order prefix: no torn records,
  // no gaps, no post-crash garbage.
  EXPECT_TRUE(Crashed);
  EXPECT_GE(Received, CrashAfter);
  EXPECT_LT(Received, NumRecords) << "crash landed after the whole stream";
  EXPECT_EQ(Mismatches, 0u);
  EXPECT_FALSE(R.peek(Got));
  // The crashed node's memory stays remotely accessible.
  EXPECT_EQ(T.memory(0).size() > 0, true);
  (void)T.memory(0).readU64(FeedbackOff);
}
