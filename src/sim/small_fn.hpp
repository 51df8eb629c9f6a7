// Small-buffer-optimized callback type for the simulation kernel.
//
// Every scheduled event used to carry a std::function<void()>, whose capture
// lives on the heap once it outgrows the implementation's tiny inline buffer
// (16 bytes on libstdc++ — two captured pointers). The kernel's hot path
// allocates and frees one of those per event. SmallFn fixes the economics:
// captures up to kInlineBytes (sized for the largest hot callback, a
// broadcast's delivery event carrying a Message by value) are stored inline
// in the event slab; bigger or throwing-move callables fall back to one heap
// allocation. SmallFn is move-only — the queue relocates callbacks through
// dispatch instead of copying them — and relocation of an inline capture is
// a nothrow move-construct, never an allocation.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace pas::sim {

class SmallFn {
 public:
  /// Inline capture capacity. 104 bytes + three dispatch pointers keep the
  /// whole object at 128 bytes (two cache lines). The largest kernel-path
  /// capture, a broadcast's delivery event (the Network plus an 80-byte
  /// Message by value), is 88 bytes, and src/net/network.cpp static_asserts
  /// that it fits, so the hot path never allocates.
  static constexpr std::size_t kInlineBytes = 104;

  SmallFn() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, SmallFn> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): callable wrapper
    construct(std::forward<F>(f));
  }

  /// Destroys the current target (if any) and constructs `f` in place —
  /// the zero-move path the event queue uses to build a capture directly
  /// inside its slab.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, SmallFn> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  void emplace(F&& f) {
    reset();
    construct(std::forward<F>(f));
  }

  SmallFn(SmallFn&& other) noexcept { steal(other); }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  void operator()() { invoke_(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return invoke_ != nullptr;
  }

  /// Destroys the target (if any) and returns to the empty state.
  void reset() noexcept {
    if (destroy_ != nullptr) destroy_(storage_);
    invoke_ = nullptr;
    relocate_ = nullptr;
    destroy_ = nullptr;
  }

  /// True when the target lives in the inline buffer (diagnostics/tests).
  [[nodiscard]] bool is_inline() const noexcept {
    return invoke_ != nullptr && relocate_ != &heap_relocate;
  }

  /// Total footprint sanity: keep the object at two cache lines.
  static_assert(kInlineBytes % alignof(void*) == 0);

 private:
  template <typename D>
  static constexpr bool kStoredInline =
      sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  /// Pre: *this is empty.
  template <typename F>
  void construct(F&& f) {
    using D = std::remove_cvref_t<F>;
    if constexpr (kStoredInline<D> && std::is_trivially_copyable_v<D> &&
                  std::is_trivially_destructible_v<D>) {
      // The kernel's hot captures (a node index, a Message by value) are
      // trivially relocatable: moving is a raw byte copy and destruction is
      // a no-op, so the destroy pointer stays null and reset() skips the
      // indirect call entirely.
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      invoke_ = &inline_invoke<D>;
      relocate_ = &trivial_relocate<sizeof(D)>;
    } else if constexpr (kStoredInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      invoke_ = &inline_invoke<D>;
      relocate_ = &inline_relocate<D>;
      destroy_ = &inline_destroy<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      invoke_ = &heap_invoke<D>;
      relocate_ = &heap_relocate;
      destroy_ = &heap_destroy<D>;
    }
  }

  using Invoke = void (*)(std::byte*);
  using Relocate = void (*)(std::byte* from, std::byte* to) noexcept;
  using Destroy = void (*)(std::byte*) noexcept;

  template <typename D>
  static D* inline_target(std::byte* s) noexcept {
    return std::launder(reinterpret_cast<D*>(s));
  }

  template <typename D>
  static void inline_invoke(std::byte* s) {
    (*inline_target<D>(s))();
  }
  template <std::size_t N>
  static void trivial_relocate(std::byte* from, std::byte* to) noexcept {
    std::memcpy(to, from, N);
  }
  template <typename D>
  static void inline_relocate(std::byte* from, std::byte* to) noexcept {
    D* f = inline_target<D>(from);
    ::new (static_cast<void*>(to)) D(std::move(*f));
    f->~D();
  }
  template <typename D>
  static void inline_destroy(std::byte* s) noexcept {
    inline_target<D>(s)->~D();
  }

  template <typename D>
  static D*& heap_target(std::byte* s) noexcept {
    return *std::launder(reinterpret_cast<D**>(s));
  }

  template <typename D>
  static void heap_invoke(std::byte* s) {
    (*heap_target<D>(s))();
  }
  static void heap_relocate(std::byte* from, std::byte* to) noexcept {
    // Ownership moves with the pointer; the pointee stays put.
    ::new (static_cast<void*>(to)) void*(*reinterpret_cast<void**>(from));
  }
  template <typename D>
  static void heap_destroy(std::byte* s) noexcept {
    delete heap_target<D>(s);
  }

  /// Relocates `other`'s target into *this (pre: *this is empty) and leaves
  /// `other` empty.
  void steal(SmallFn& other) noexcept {
    if (other.invoke_ == nullptr) return;
    other.relocate_(other.storage_, storage_);
    invoke_ = other.invoke_;
    relocate_ = other.relocate_;
    destroy_ = other.destroy_;
    other.invoke_ = nullptr;
    other.relocate_ = nullptr;
    other.destroy_ = nullptr;
  }

  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
  Invoke invoke_ = nullptr;
  Relocate relocate_ = nullptr;
  Destroy destroy_ = nullptr;
};

}  // namespace pas::sim
