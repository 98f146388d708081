//===- PerThread.h - Dense thread slots and per-slot cells ---------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one mechanism for per-thread state: threadSlot() is a dense index a
/// thread claims on first use (the lowest free one) and returns after its
/// thread_local destructors (PerThread.cpp), and PerThread<T> holds one T
/// per slot, so a thread writes only its own cells at any thread count.
/// The first 16 cells are inline: while at most 16 threads are live,
/// local() is a TLS load, a compare and an index. Later slots' cells live
/// in chunks of 16 allocated on first use. A slot's next owner inherits
/// its cells as they are.
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_SUPPORT_PERTHREAD_H
#define MTE4JNI_SUPPORT_PERTHREAD_H

#include "mte4jni/support/Compiler.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>

namespace mte4jni::support {

inline constexpr unsigned kInlineThreadSlots = 16;
/// Threads live at once; claiming a slot past it asserts.
inline constexpr unsigned kMaxThreadSlots = 1024;

namespace detail {
/// The calling thread's slot + 1 (0 = none). constinit on this declaration
/// too, so every read from any translation unit is a plain TLS load with
/// no dynamic-initialization guard.
extern thread_local constinit unsigned ThreadSlotPlusOne;
unsigned claimThreadSlot();
} // namespace detail

/// The calling thread's slot, claimed on first use.
M4J_ALWAYS_INLINE unsigned threadSlot() {
  unsigned S = detail::ThreadSlotPlusOne;
  if (M4J_LIKELY(S != 0))
    return S - 1;
  return detail::claimThreadSlot();
}

/// One past the highest slot ever claimed.
unsigned threadSlotHighWater();

/// Adds to a cell only the calling thread writes: a relaxed load and store,
/// so concurrent readers see no data race and the writer pays no RMW.
template <typename V>
M4J_ALWAYS_INLINE void ownerAdd(std::atomic<V> &Cell,
                                std::type_identity_t<V> N) {
  Cell.store(Cell.load(std::memory_order_relaxed) + N,
             std::memory_order_relaxed);
}

/// One T per thread slot. T must be safe to read while its owner writes it
/// (relaxed atomics, or fields behind T's own lock).
template <typename T> class PerThread {
public:
  PerThread() = default;
  ~PerThread() {
    for (std::atomic<Chunk *> &C : Chunks)
      delete C.load(std::memory_order_relaxed);
  }
  PerThread(const PerThread &) = delete;
  PerThread &operator=(const PerThread &) = delete;

  /// The calling thread's cell.
  M4J_ALWAYS_INLINE T &local() {
    // An unclaimed slot (0) wraps past the inline range too.
    unsigned S = detail::ThreadSlotPlusOne - 1;
    if (M4J_LIKELY(S < kInlineThreadSlots))
      return Inline[S];
    return at(threadSlot());
  }

  /// Slot \p S's cell, or nullptr when its chunk was never allocated.
  T *find(unsigned S) {
    if (S < kInlineThreadSlots)
      return &Inline[S];
    Chunk *C = Chunks[S / kInlineThreadSlots - 1].load(
        std::memory_order_acquire);
    return C ? &C->Cells[S % kInlineThreadSlots] : nullptr;
  }

  /// Slot \p S's cell; allocates its chunk on first use.
  M4J_NOINLINE T &at(unsigned S) {
    if (T *Cell = find(S))
      return *Cell;
    auto Fresh = std::make_unique<Chunk>();
    Chunk *C = nullptr;
    if (Chunks[S / kInlineThreadSlots - 1].compare_exchange_strong(
            C, Fresh.get(), std::memory_order_acq_rel,
            std::memory_order_acquire))
      C = Fresh.release();
    return C->Cells[S % kInlineThreadSlots];
  }

  /// Calls \p Fn on every cell that exists, in slot order.
  template <typename Fn> void forEach(Fn &&F) { visit(*this, F); }
  template <typename Fn> void forEach(Fn &&F) const { visit(*this, F); }

private:
  struct Chunk {
    T Cells[kInlineThreadSlots];
  };
  template <typename Self, typename Fn> static void visit(Self &PT, Fn &F) {
    for (auto &Cell : PT.Inline)
      F(Cell);
    for (auto &Ref : PT.Chunks)
      if (Chunk *C = Ref.load(std::memory_order_acquire))
        for (T &Cell : C->Cells)
          F(Cell);
  }

  T Inline[kInlineThreadSlots];
  std::atomic<Chunk *> Chunks[kMaxThreadSlots / kInlineThreadSlots - 1] = {};
};

} // namespace mte4jni::support

#endif // MTE4JNI_SUPPORT_PERTHREAD_H
