//===- hamband/runtime/WireFormat.h - On-the-wire encoding -----*- C++ -*-===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-level serialization used by the runtime. Per Section 4, a call is
/// assigned a unique id, paired with its variable-sized dependency arrays
/// and serialized into a byte stream before it is remotely written. The
/// dependency-array length is *not* stored redundantly: its size is
/// derived from the method identifier in the call header, exactly as the
/// paper describes ("the size of dependency arrays in the second element
/// is decided based on the identifier of the method in the first
/// element").
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RUNTIME_WIREFORMAT_H
#define HAMBAND_RUNTIME_WIREFORMAT_H

#include "hamband/core/ObjectType.h"
#include "hamband/semantics/RdmaSemantics.h"
#include "hamband/support/Bytes.h"

#include <cstdint>
#include <vector>

namespace hamband {
namespace runtime {

/// Bounds-checked little-endian byte reader.
class ByteReader {
public:
  ByteReader(const std::uint8_t *Data, std::size_t Len)
      : Data(Data), Len(Len) {}
  explicit ByteReader(const std::vector<std::uint8_t> &V)
      : Data(V.data()), Len(V.size()) {}
  explicit ByteReader(const Bytes &B) : Data(B.data()), Len(B.size()) {}

  bool ok() const { return !Failed; }
  std::size_t remaining() const { return Len - Pos; }

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  /// The next \p N bytes as a buffer of their own (empty on underrun).
  Bytes bytes(std::size_t N);

private:
  bool take(std::size_t N);

  const std::uint8_t *Data;
  std::size_t Len;
  std::size_t Pos = 0;
  bool Failed = false;
};

/// A decoded buffer entry: the call, its dependency map, and the
/// per-issuer broadcast sequence number used for reliable-broadcast
/// deduplication.
struct WireCall {
  Call TheCall;
  semantics::DepMap Deps;
  std::uint64_t BcastSeq = 0;
  /// Membership epoch the record was issued in (docs/reconfig.md).
  /// Receivers drop records whose epoch differs from their installed
  /// membership; fixed-membership clusters leave this 0 everywhere.
  std::uint32_t Epoch = 0;
};

/// Serializes a call with its dependency arrays. The layout is:
///   u16 method, u16 argc, u32 issuer, u64 req, u64 bcastSeq, u32 epoch,
///   i64 args[argc], u64 depCounts[|P| * |Dep(method)|]
/// The dependency block length is implied by the method id and the
/// process count, as in the paper.
Bytes encodeCall(const CoordinationSpec &Spec, unsigned NumProcesses,
                 const WireCall &WC);

/// Decodes a call serialized by encodeCall. Returns false on a malformed
/// buffer.
bool decodeCall(const CoordinationSpec &Spec, unsigned NumProcesses,
                const std::uint8_t *Data, std::size_t Len, WireCall &Out);

/// Builds the dense dependency block (|P| x |Dep(u)| counts) from a sparse
/// DepMap, ordered process-major with Dep(u) sorted ascending.
std::vector<std::uint64_t> denseDeps(const CoordinationSpec &Spec,
                                     unsigned NumProcesses, MethodId U,
                                     const semantics::DepMap &Deps);

/// Marker distinguishing a call-batch record from a single encoded call:
/// it occupies the u16 method slot of the header and is never a valid
/// method id (decodeCall rejects any id >= numMethods()).
inline constexpr std::uint16_t CallBatchMarker = 0xFFFF;

/// True when \p Data starts with the call-batch marker.
bool isCallBatch(const std::uint8_t *Data, std::size_t Len);

/// Serializes several already-encoded calls (encodeCall outputs) into one
/// length-prefixed batch record:
///   u16 CallBatchMarker | u16 count | count x (u32 len | bytes)
/// A batch is the unit shipped per ring doorbell / backup-slot stage on
/// the batched broadcast hot path.
Bytes encodeCallBatch(const Bytes *EncodedCalls, std::size_t Count);
inline Bytes encodeCallBatch(const std::vector<Bytes> &EncodedCalls) {
  return encodeCallBatch(EncodedCalls.data(), EncodedCalls.size());
}

/// Decodes a batch record into its calls, in issue order. False on a
/// malformed buffer or when any inner call fails decodeCall.
bool decodeCallBatch(const CoordinationSpec &Spec, unsigned NumProcesses,
                     const std::uint8_t *Data, std::size_t Len,
                     std::vector<WireCall> &Out);

/// Everything one batched flush ships, staged as ONE backup-slot image so
/// reliable-broadcast recovery covers the whole flush atomically (staging
/// summaries and the free batch separately would make the single slot
/// self-overwriting).
/// Layout: u8 k | k x (u8 group | u32 len | encodeSummary bytes) |
///         u32 freeLen | encodeCallBatch bytes (freeLen == 0: none)
struct FlushImage {
  /// (summarization group, encodeSummary output) per dirty group.
  std::vector<std::pair<std::uint8_t, Bytes>> Summaries;
  /// encodeCallBatch output, or empty when the flush carried no free calls.
  Bytes FreeRecord;
};

Bytes encodeFlushImage(const FlushImage &Img);
bool decodeFlushImage(const std::uint8_t *Data, std::size_t Len,
                      FlushImage &Out);

/// Marker distinguishing a summary-delta frame from a single encoded call
/// or a call batch on the F-rings: like CallBatchMarker it occupies the
/// u16 method slot and is never a valid method id.
inline constexpr std::uint16_t SummaryDeltaMarker = 0xFFFE;

/// A delta-state summary frame shipped over the F-rings
/// (docs/deltas.md). A *delta* frame carries the fold of the source's
/// reducible calls in the half-open version interval (FromSeq, ToSeq] of
/// one summarization group; the receiver joins it into its cached image
/// when FromSeq matches the version it has seen. A *full* frame
/// (Full = 1) carries chunk ChunkIdx of ChunkCount of a complete summary
/// image at version ToSeq (anti-entropy / slot-overflow fallback); the
/// receiver reassembles all chunks and installs the image atomically.
struct SummaryDeltaFrame {
  std::uint8_t Group = 0;
  /// 0: delta over (FromSeq, ToSeq]; 1: full-image chunk at ToSeq.
  std::uint8_t Full = 0;
  std::uint16_t ChunkIdx = 0;
  std::uint16_t ChunkCount = 1;
  std::uint64_t FromSeq = 0;
  std::uint64_t ToSeq = 0;
  /// Membership epoch of the shipping source (docs/reconfig.md).
  std::uint32_t Epoch = 0;
  /// encodeSummary output: the delta call (or full-image chunk call) plus
  /// the source's per-method applied counts; Image.Seq == ToSeq.
  Bytes Image;
};

/// True when \p Data starts with the summary-delta marker.
bool isSummaryDelta(const std::uint8_t *Data, std::size_t Len);

/// Fixed frame overhead preceding the embedded summary image (ship-path
/// size budgeting).
inline constexpr std::size_t SummaryDeltaHeaderBytes =
    2 + 1 + 1 + 2 + 2 + 8 + 8 + 4 + 4;

/// Layout: u16 marker | u8 group | u8 full | u16 chunkIdx | u16 chunkCnt |
///         u64 fromSeq | u64 toSeq | u32 epoch | u32 len |
///         encodeSummary bytes
Bytes encodeSummaryDelta(const SummaryDeltaFrame &F);
bool decodeSummaryDelta(const std::uint8_t *Data, std::size_t Len,
                        SummaryDeltaFrame &Out);

/// Kinds of mailbox messages (leader redirection of conflicting calls).
enum class MailKind : std::uint8_t {
  /// A client's conflicting call forwarded to the group leader.
  ConfRequest = 1,
  /// The leader's completion response to the origin node.
  ConfResponse = 2,
};

/// A mailbox message.
struct MailMsg {
  MailKind Kind = MailKind::ConfRequest;
  ProcessId Origin = 0;
  RequestId ReqId = 0;
  std::uint8_t Ok = 0;
  /// Membership epoch of the sender; requests carrying a stale epoch are
  /// answered with a Retry response (docs/reconfig.md).
  std::uint32_t Epoch = 0;
  Call TheCall; // Meaningful for requests only.
};

/// Serializes a mailbox message.
Bytes encodeMail(const MailMsg &Msg);

/// Decodes a mailbox message; false on malformed bytes.
bool decodeMail(const std::uint8_t *Data, std::size_t Len, MailMsg &Out);

/// Serializes a summary-slot image: the folded summary call plus the
/// per-method applied counts of the source process for the group.
/// Layout: u64 seq | u16 method | u16 argc | u32 issuer | u64 req |
///         i64 args[argc] | u16 k | k x (u16 method, u64 count)
struct SummaryImage {
  std::uint64_t Seq = 0;
  Call Summary;
  std::vector<std::pair<MethodId, std::uint64_t>> AppliedCounts;
};

Bytes encodeSummary(const SummaryImage &Img);
bool decodeSummary(const std::uint8_t *Data, std::size_t Len,
                   SummaryImage &Out);

} // namespace runtime
} // namespace hamband

#endif // HAMBAND_RUNTIME_WIREFORMAT_H
