//===- hamband/support/UniqueFunction.h - Move-only callable ----*- C++ -*-===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one callable type of the runtime's hot path: every CPU task, timer,
/// simulator event, verb completion and client callback is a
/// UniqueFunction. Unlike std::function it is move-only, so a closure may
/// own move-only state (a unique_ptr, another UniqueFunction) and is never
/// copied behind the caller's back, and it stores captures of up to
/// InlineBytes bytes inside the object itself: a closure capturing a few
/// ids, pointers and a shared_ptr costs no heap allocation. Larger
/// captures fall back to one heap allocation, as std::function does.
///
/// Like std::function, operator() is const and may call a mutable target,
/// so a closure that captured a UniqueFunction can call it from a
/// non-mutable lambda. Calling an empty UniqueFunction is undefined (it
/// asserts).
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_SUPPORT_UNIQUEFUNCTION_H
#define HAMBAND_SUPPORT_UNIQUEFUNCTION_H

#include <cassert>
#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace hamband {

template <typename Sig> class UniqueFunction;

namespace detail {
template <typename T> struct IsStdFunction : std::false_type {};
template <typename S>
struct IsStdFunction<std::function<S>> : std::true_type {};
} // namespace detail

template <typename R, typename... Args> class UniqueFunction<R(Args...)> {
public:
  /// Captures up to this many bytes are stored inline. With the vtable
  /// pointer the object is exactly one cache line.
  static constexpr std::size_t InlineBytes = 56;

  UniqueFunction() noexcept = default;
  UniqueFunction(std::nullptr_t) noexcept {}

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, UniqueFunction> &&
                std::is_invocable_r_v<R, D &, Args...>>>
  UniqueFunction(F &&Fn) {
    // A null pointer or an empty std::function makes an empty
    // UniqueFunction, as it makes an empty std::function.
    if constexpr (std::is_pointer_v<D> || std::is_member_pointer_v<D> ||
                  detail::IsStdFunction<D>::value) {
      if (!Fn)
        return;
    }
    if constexpr (storedInline<D>()) {
      ::new (static_cast<void *>(Buf)) D(std::forward<F>(Fn));
      VT = &InlineOps<D>::Table;
    } else {
      ::new (static_cast<void *>(Buf)) D *(new D(std::forward<F>(Fn)));
      VT = &HeapOps<D>::Table;
    }
  }

  UniqueFunction(UniqueFunction &&O) noexcept : VT(O.VT) {
    if (VT) {
      VT->Relocate(Buf, O.Buf);
      O.VT = nullptr;
    }
  }

  UniqueFunction &operator=(UniqueFunction &&O) noexcept {
    if (this != &O) {
      reset();
      if (O.VT) {
        O.VT->Relocate(Buf, O.Buf);
        VT = O.VT;
        O.VT = nullptr;
      }
    }
    return *this;
  }

  UniqueFunction &operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  UniqueFunction(const UniqueFunction &) = delete;
  UniqueFunction &operator=(const UniqueFunction &) = delete;

  ~UniqueFunction() { reset(); }

  explicit operator bool() const noexcept { return VT != nullptr; }

  R operator()(Args... A) const {
    assert(VT && "calling an empty UniqueFunction");
    return VT->Invoke(const_cast<unsigned char *>(Buf),
                      std::forward<Args>(A)...);
  }

  /// True when a target of type \p F is stored without a heap allocation.
  template <typename F> static constexpr bool storedInline() {
    return sizeof(F) <= InlineBytes && alignof(F) <= alignof(Storage) &&
           std::is_nothrow_move_constructible_v<F>;
  }

private:
  struct VTable {
    R (*Invoke)(void *Obj, Args &&...A);
    /// Move-constructs the target into \p Dst and destroys it at \p Src.
    void (*Relocate)(void *Dst, void *Src) noexcept;
    void (*Destroy)(void *Obj) noexcept;
  };

  template <typename D> struct InlineOps {
    static R invoke(void *Obj, Args &&...A) {
      return (*static_cast<D *>(Obj))(std::forward<Args>(A)...);
    }
    static void relocate(void *Dst, void *Src) noexcept {
      D *S = static_cast<D *>(Src);
      ::new (Dst) D(std::move(*S));
      S->~D();
    }
    static void destroy(void *Obj) noexcept { static_cast<D *>(Obj)->~D(); }
    static constexpr VTable Table{&invoke, &relocate, &destroy};
  };

  template <typename D> struct HeapOps {
    static D *&ptr(void *Obj) { return *static_cast<D **>(Obj); }
    static R invoke(void *Obj, Args &&...A) {
      return (*ptr(Obj))(std::forward<Args>(A)...);
    }
    static void relocate(void *Dst, void *Src) noexcept {
      ::new (Dst) D *(ptr(Src));
    }
    static void destroy(void *Obj) noexcept { delete ptr(Obj); }
    static constexpr VTable Table{&invoke, &relocate, &destroy};
  };

  void reset() noexcept {
    if (VT) {
      const VTable *Old = VT;
      VT = nullptr;
      Old->Destroy(Buf);
    }
  }

  using Storage = std::max_align_t;
  alignas(Storage) unsigned char Buf[InlineBytes];
  const VTable *VT = nullptr;
};

} // namespace hamband

#endif // HAMBAND_SUPPORT_UNIQUEFUNCTION_H
