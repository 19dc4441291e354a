// UniqueFunction — a move-only, small-buffer-optimized std::function
// replacement for the simulator's hot paths.
//
// std::function requires copyable callables, so a callback that owns a
// resource (a pooled packet handle, a completion closure) would have to
// park it behind a shared_ptr.  UniqueFunction accepts move-only
// captures, and a capture that fits the inline buffer never touches the
// allocator.
//
// Storage contract:
//   * A callable F is stored inline iff sizeof(F) <= InlineBytes,
//     alignof(F) <= alignof(std::max_align_t), and F is nothrow move
//     constructible.  `fits_inline<F>()` exposes the decision at compile
//     time so hot-path call sites (the scheduler among them) can
//     static_assert it.
//   * Oversized callables spill to aligned ::operator new / delete.
//     Only cold paths (setup-time closures) spill; every scheduler event
//     is inline by construction.
//   * Inline callables relocate through their move constructor (an
//     exact-size copy once the instantiation inlines); trivially
//     destructible ones skip the destructor call entirely, so the
//     common captureless or POD-capture case stays a handful of loads
//     beyond a raw indirect call.
//
// Both plain `R(Args...)` and const-invocable `R(Args...) const`
// signatures are supported; the latter is used where callers hold the
// callable by const reference (e.g. QdiscFactory).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>  // std::bad_function_call
#include <new>
#include <type_traits>
#include <utility>

namespace hwatch::sim {

/// Default inline capacity: enough for a `this` pointer plus a handful
/// of captured words (or one std::function being wrapped) without
/// bloating every owner.
inline constexpr std::size_t kUniqueFunctionInlineBytes = 48;

namespace uf_detail {

template <bool Const, std::size_t InlineBytes, typename R, typename... Args>
class UfImpl {
  static_assert(InlineBytes >= sizeof(void*),
                "inline buffer must at least hold a spill pointer");

 public:
  static constexpr std::size_t inline_bytes = InlineBytes;

  /// True when a (decayed) callable of type D is stored in the inline
  /// buffer rather than spilled to the heap.
  template <typename D>
  static constexpr bool stores_inline =
      sizeof(D) <= InlineBytes &&
      alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  constexpr UfImpl() noexcept = default;
  constexpr UfImpl(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_base_of_v<UfImpl, D> &&
                !std::is_same_v<D, std::nullptr_t> &&
                std::is_invocable_r_v<
                    R, std::conditional_t<Const, const D&, D&>, Args...>>>
  UfImpl(F&& f) {  // NOLINT(runtime/explicit)
    emplace<D>(std::forward<F>(f));
  }

  UfImpl(UfImpl&& other) noexcept { move_from(other); }
  UfImpl& operator=(UfImpl&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  UfImpl(const UfImpl&) = delete;
  UfImpl& operator=(const UfImpl&) = delete;

  ~UfImpl() { reset(); }

  UfImpl& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_base_of_v<UfImpl, D> &&
                !std::is_same_v<D, std::nullptr_t> &&
                std::is_invocable_r_v<
                    R, std::conditional_t<Const, const D&, D&>, Args...>>>
  UfImpl& operator=(F&& f) {
    UfImpl tmp(std::forward<F>(f));
    reset();
    move_from(tmp);
    return *this;
  }

  /// Destroys the held callable (if any) and becomes empty.
  void reset() noexcept {
    if (vt_ != nullptr && vt_->destroy != nullptr) vt_->destroy(buf_);
    invoke_ = nullptr;
    vt_ = nullptr;
  }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  /// True when the held callable lives in the inline buffer (false when
  /// empty or spilled).  Hot paths static_assert fits_inline instead.
  bool is_inline() const noexcept { return vt_ != nullptr && !vt_->heap; }

  /// Compile-time check: would a callable of type F be stored inline?
  template <typename F>
  static constexpr bool fits_inline() {
    return stores_inline<std::decay_t<F>>;
  }

 protected:
  using Storage = std::conditional_t<Const, const void*, void*>;
  using Invoke = R (*)(Storage, Args&&...);

  struct VTable {
    // nullptr => the callable lives behind a spill pointer; relocation
    // is a memcpy of that pointer.  Inline callables always relocate
    // through their move constructor — for trivially copyable captures
    // the instantiation collapses to an exact-sizeof(D) copy, which
    // (unlike a whole-buffer memcpy) never touches bytes the object
    // never wrote.
    void (*relocate)(void* src, void* dst) noexcept;
    // nullptr => trivially destructible, nothing to do.
    void (*destroy)(void* buf) noexcept;
    bool heap;  // callable lives behind a spill pointer in buf
  };

  R call(Storage self, Args... args) const {
    if (invoke_ == nullptr) throw std::bad_function_call();
    return invoke_(self, std::forward<Args>(args)...);
  }

  template <typename D, typename F>
  void emplace(F&& f) {
    if constexpr (stores_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      invoke_ = &invoke_inline<D>;
      vt_ = &kInlineVt<D>;
    } else {
      void* mem = ::operator new(sizeof(D), std::align_val_t{alignof(D)});
      try {
        ::new (mem) D(std::forward<F>(f));
      } catch (...) {
        ::operator delete(mem, sizeof(D), std::align_val_t{alignof(D)});
        throw;
      }
      std::memcpy(buf_, &mem, sizeof(mem));
      invoke_ = &invoke_heap<D>;
      vt_ = &kHeapVt<D>;
    }
  }

  void move_from(UfImpl& other) noexcept {
    invoke_ = other.invoke_;
    vt_ = other.vt_;
    if (vt_ != nullptr) {
      if (vt_->relocate != nullptr) {
        vt_->relocate(other.buf_, buf_);
      } else {
        std::memcpy(buf_, other.buf_, sizeof(void*));
      }
    }
    other.invoke_ = nullptr;
    other.vt_ = nullptr;
  }

  template <typename D>
  static R invoke_inline(Storage self, Args&&... args) {
    using P = std::conditional_t<Const, const D*, D*>;
    if constexpr (std::is_void_v<R>) {
      (*static_cast<P>(self))(std::forward<Args>(args)...);
    } else {
      return (*static_cast<P>(self))(std::forward<Args>(args)...);
    }
  }

  template <typename D>
  static R invoke_heap(Storage self, Args&&... args) {
    void* mem;
    std::memcpy(&mem, self, sizeof(mem));
    using P = std::conditional_t<Const, const D*, D*>;
    if constexpr (std::is_void_v<R>) {
      (*static_cast<P>(mem))(std::forward<Args>(args)...);
    } else {
      return (*static_cast<P>(mem))(std::forward<Args>(args)...);
    }
  }

  template <typename D>
  static void relocate_inline(void* src, void* dst) noexcept {
    D* s = std::launder(reinterpret_cast<D*>(src));
    ::new (dst) D(std::move(*s));
    s->~D();
  }

  template <typename D>
  static void destroy_inline(void* buf) noexcept {
    std::launder(reinterpret_cast<D*>(buf))->~D();
  }

  template <typename D>
  static void destroy_heap(void* buf) noexcept {
    void* mem;
    std::memcpy(&mem, buf, sizeof(mem));
    static_cast<D*>(mem)->~D();
    ::operator delete(mem, sizeof(D), std::align_val_t{alignof(D)});
  }

  template <typename D>
  static constexpr VTable kInlineVt{
      &relocate_inline<D>,
      std::is_trivially_destructible_v<D> ? nullptr : &destroy_inline<D>,
      /*heap=*/false};

  template <typename D>
  static constexpr VTable kHeapVt{/*relocate=*/nullptr, &destroy_heap<D>,
                                  /*heap=*/true};

  Invoke invoke_ = nullptr;
  const VTable* vt_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[InlineBytes];
};

}  // namespace uf_detail

template <typename Signature,
          std::size_t InlineBytes = kUniqueFunctionInlineBytes>
class UniqueFunction;

template <typename R, typename... Args, std::size_t InlineBytes>
class UniqueFunction<R(Args...), InlineBytes>
    : public uf_detail::UfImpl<false, InlineBytes, R, Args...> {
  using Base = uf_detail::UfImpl<false, InlineBytes, R, Args...>;

 public:
  using Base::Base;
  using Base::operator=;

  R operator()(Args... args) {
    return this->call(static_cast<void*>(this->buf_),
                      std::forward<Args>(args)...);
  }
};

template <typename R, typename... Args, std::size_t InlineBytes>
class UniqueFunction<R(Args...) const, InlineBytes>
    : public uf_detail::UfImpl<true, InlineBytes, R, Args...> {
  using Base = uf_detail::UfImpl<true, InlineBytes, R, Args...>;

 public:
  using Base::Base;
  using Base::operator=;

  R operator()(Args... args) const {
    return this->call(static_cast<const void*>(this->buf_),
                      std::forward<Args>(args)...);
  }
};

}  // namespace hwatch::sim
