//===- hamband/support/Bytes.h - Shared immutable byte buffer ---*- C++ -*-===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one payload type of the runtime: every encoded call, mail, summary
/// image, ring record and verb payload is a Bytes. A Bytes is an immutable,
/// reference-counted buffer in a single heap block (count, length and
/// bytes together); copying a Bytes shares the block, so one encoded
/// consensus entry can sit in the leader's log cache and in every
/// follower's in-flight write without being copied. A ByteWriter writes a
/// buffer exactly once and hands it over without a copy.
///
/// A Bytes converts implicitly from and to std::vector<std::uint8_t> for
/// codec callers (tests, tools) that hold vectors; each conversion copies
/// the bytes once, so the runtime itself never converts.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_SUPPORT_BYTES_H
#define HAMBAND_SUPPORT_BYTES_H

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
#include <utility>
#include <vector>

namespace hamband {

class ByteWriter;

/// Immutable shared byte buffer.
class Bytes {
public:
  Bytes() noexcept = default;
  Bytes(const std::uint8_t *Data, std::size_t Len) {
    if (Len == 0)
      return;
    H = allocate(Len);
    H->Size = Len;
    std::memcpy(bytesOf(H), Data, Len);
  }
  Bytes(const std::vector<std::uint8_t> &V) : Bytes(V.data(), V.size()) {}
  Bytes(std::initializer_list<std::uint8_t> L) : Bytes(L.begin(), L.size()) {}

  Bytes(const Bytes &O) noexcept : H(O.H) {
    if (H)
      H->Refs.fetch_add(1, std::memory_order_relaxed);
  }
  Bytes(Bytes &&O) noexcept : H(std::exchange(O.H, nullptr)) {}
  Bytes &operator=(const Bytes &O) noexcept {
    Bytes Tmp(O);
    std::swap(H, Tmp.H);
    return *this;
  }
  Bytes &operator=(Bytes &&O) noexcept {
    Bytes Tmp(std::move(O));
    std::swap(H, Tmp.H);
    return *this;
  }
  ~Bytes() { release(H); }

  const std::uint8_t *data() const { return H ? bytesOf(H) : nullptr; }
  std::size_t size() const { return H ? H->Size : 0; }
  bool empty() const { return size() == 0; }
  const std::uint8_t *begin() const { return data(); }
  const std::uint8_t *end() const { return data() + size(); }
  std::uint8_t operator[](std::size_t I) const {
    assert(I < size() && "Bytes index out of range");
    return bytesOf(H)[I];
  }

  /// Copies the bytes out (codec tests and tools; see the file comment).
  operator std::vector<std::uint8_t>() const { return {begin(), end()}; }

  /// Number of handles sharing this buffer (0 for an empty Bytes).
  std::uint32_t useCount() const {
    return H ? H->Refs.load(std::memory_order_acquire) : 0;
  }

  friend bool operator==(const Bytes &A, const Bytes &B) {
    return A.size() == B.size() &&
           (A.H == B.H || std::memcmp(A.data(), B.data(), A.size()) == 0);
  }

private:
  friend class ByteWriter;

  struct Header {
    std::atomic<std::uint32_t> Refs{1};
    std::size_t Size = 0;
  };
  static_assert(sizeof(Header) == 16, "the payload starts 16-aligned");

  static std::uint8_t *bytesOf(Header *P) {
    return reinterpret_cast<std::uint8_t *>(P + 1);
  }
  static Header *allocate(std::size_t Cap) {
    return ::new (::operator new(sizeof(Header) + Cap)) Header();
  }
  static void release(Header *P) noexcept {
    if (P && P->Refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      P->~Header();
      ::operator delete(P);
    }
  }

  Header *H = nullptr;
};

/// Writes a Bytes buffer once, little-endian, into a block it owns alone;
/// take() hands the block over without copying. reserve() the final size
/// up front to make the buffer exactly one allocation.
class ByteWriter {
public:
  ByteWriter() = default;
  ByteWriter(const ByteWriter &) = delete;
  ByteWriter &operator=(const ByteWriter &) = delete;
  ~ByteWriter() { Bytes::release(H); }

  void reserve(std::size_t N) {
    if (N > Cap)
      grow(N);
  }
  std::size_t size() const { return H ? H->Size : 0; }

  void u8(std::uint8_t V) { *append(1) = V; }
  void u16(std::uint16_t V) { le(V, 2); }
  void u32(std::uint32_t V) { le(V, 4); }
  void u64(std::uint64_t V) { le(V, 8); }
  void i64(std::int64_t V) { u64(static_cast<std::uint64_t>(V)); }
  void bytes(const std::uint8_t *Data, std::size_t Len) {
    if (Len)
      std::memcpy(append(Len), Data, Len);
  }
  void bytes(const Bytes &B) { bytes(B.data(), B.size()); }
  /// Appends \p Len zero bytes.
  void zeros(std::size_t Len) {
    if (Len)
      std::memset(append(Len), 0, Len);
  }
  /// Hands the written bytes over; the writer is empty afterwards.
  Bytes take() {
    Bytes Out;
    Out.H = std::exchange(H, nullptr);
    Cap = 0;
    return Out;
  }

private:
  std::uint8_t *append(std::size_t N) {
    std::size_t Old = size();
    if (Old + N > Cap)
      grow(std::max<std::size_t>(Old + N, Cap ? 2 * Cap : 64));
    H->Size = Old + N;
    return Bytes::bytesOf(H) + Old;
  }
  void le(std::uint64_t V, unsigned N) {
    std::uint8_t *P = append(N);
    for (unsigned I = 0; I < N; ++I)
      P[I] = static_cast<std::uint8_t>(V >> (8 * I));
  }
  void grow(std::size_t NewCap) {
    Bytes::Header *N = Bytes::allocate(NewCap);
    if (H) {
      N->Size = H->Size;
      std::memcpy(Bytes::bytesOf(N), Bytes::bytesOf(H), H->Size);
      Bytes::release(H);
    }
    H = N;
    Cap = NewCap;
  }

  Bytes::Header *H = nullptr;
  std::size_t Cap = 0;
};

} // namespace hamband

#endif // HAMBAND_SUPPORT_BYTES_H
