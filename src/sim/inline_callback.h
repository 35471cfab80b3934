// A small-buffer-optimized, move-only callback for the event hot path.
//
// Every simulation event used to carry a std::function<void()>. On the
// packet path (NIC scheduler wake-ups, timer re-arms) the captures are tiny
// — a `this` pointer plus a few words — but std::function only inlines very
// small captures and pays double indirection on invoke. InlineCallback<N>
// stores any callable of up to N bytes directly inside the event entry;
// only oversized captures fall back to a heap allocation, and the
// packet-path call sites go through MustInline(), which rejects such
// captures at compile time. The event engine is therefore allocation-free
// per event on the packet path (port events carry no callback at all).

#ifndef THEMIS_SRC_SIM_INLINE_CALLBACK_H_
#define THEMIS_SRC_SIM_INLINE_CALLBACK_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace themis {

// Inline capacity of the engine's event callback. 48 bytes fits a captured
// `this` plus five words — every packet-path capture in the tree — while
// keeping a queue entry (time + seq + callback) at 80 bytes.
inline constexpr size_t kEventCallbackInlineBytes = 48;

template <size_t InlineBytes = kEventCallbackInlineBytes>
class InlineCallback {
 public:
  // True if a callable of type F is stored inline (no heap allocation).
  template <typename F>
  static constexpr bool kWouldInline = sizeof(F) <= InlineBytes &&
                                       alignof(F) <= alignof(std::max_align_t) &&
                                       std::is_nothrow_move_constructible_v<F>;

  InlineCallback() = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineCallback> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineCallback(F&& f) {  // NOLINT: implicit so lambdas convert at call sites
    if constexpr (kWouldInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      invoke_ = &InvokeInline<D>;
      manage_ = &ManageInline<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      invoke_ = &InvokeHeap<D>;
      manage_ = &ManageHeap<D>;
    }
  }

  // Compile-time-checked construction for hot-path call sites: refuses any
  // callable that would not be stored inline.
  template <typename F>
  static InlineCallback MustInline(F&& f) {
    static_assert(kWouldInline<std::decay_t<F>>,
                  "callback capture too large for the allocation-free packet path; "
                  "shrink the capture or use the plain Schedule() overload");
    return InlineCallback(std::forward<F>(f));
  }

  InlineCallback(InlineCallback&& other) noexcept { MoveFrom(other); }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { Reset(); }

  void operator()() { invoke_(storage_); }

  explicit operator bool() const { return invoke_ != nullptr; }

  // True if the stored callable lives in the inline buffer (or if empty).
  bool stored_inline() const { return manage_ == nullptr || manage_(Op::kQueryInline, nullptr, nullptr) != 0; }

  void Reset() {
    if (manage_ != nullptr) {
      manage_(Op::kDestroy, storage_, nullptr);
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

 private:
  enum class Op { kDestroy, kMove, kQueryInline };

  using InvokeFn = void (*)(void*);
  using ManageFn = size_t (*)(Op, void*, void*);

  template <typename D>
  static void InvokeInline(void* storage) {
    (*std::launder(reinterpret_cast<D*>(storage)))();
  }

  template <typename D>
  static size_t ManageInline(Op op, void* self, void* from) {
    switch (op) {
      case Op::kDestroy:
        std::launder(reinterpret_cast<D*>(self))->~D();
        return 0;
      case Op::kMove: {
        D* src = std::launder(reinterpret_cast<D*>(from));
        ::new (self) D(std::move(*src));
        src->~D();
        return 0;
      }
      case Op::kQueryInline:
        return 1;
    }
    return 0;
  }

  template <typename D>
  static void InvokeHeap(void* storage) {
    (**std::launder(reinterpret_cast<D**>(storage)))();
  }

  template <typename D>
  static size_t ManageHeap(Op op, void* self, void* from) {
    switch (op) {
      case Op::kDestroy:
        delete *std::launder(reinterpret_cast<D**>(self));
        return 0;
      case Op::kMove:
        ::new (self) D*(*std::launder(reinterpret_cast<D**>(from)));
        return 0;
      case Op::kQueryInline:
        return 0;
    }
    return 0;
  }

  void MoveFrom(InlineCallback& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (manage_ != nullptr) {
      manage_(Op::kMove, storage_, other.storage_);
      other.invoke_ = nullptr;
      other.manage_ = nullptr;
    }
  }

  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[InlineBytes];
};

// The engine-wide event callback type.
using EventCallback = InlineCallback<kEventCallbackInlineBytes>;

}  // namespace themis

#endif  // THEMIS_SRC_SIM_INLINE_CALLBACK_H_
