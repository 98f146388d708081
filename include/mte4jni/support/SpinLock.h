//===- SpinLock.h - Tiny test-and-test-and-set spin lock ----------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small spin lock for very short critical sections (tag-table shards,
/// fault-log appends). Satisfies the Lockable named requirement so it can be
/// used with std::lock_guard.
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_SUPPORT_SPINLOCK_H
#define MTE4JNI_SUPPORT_SPINLOCK_H

#include <atomic>

namespace mte4jni::support {

/// Pause hint for spin-wait loops.
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

class SpinLock {
public:
  SpinLock() = default;
  SpinLock(const SpinLock &) = delete;
  SpinLock &operator=(const SpinLock &) = delete;

  void lock() {
    for (;;) {
      if (!Flag.exchange(true, std::memory_order_acquire))
        return;
      while (Flag.load(std::memory_order_relaxed))
        cpuRelax();
    }
  }

  bool try_lock() {
    return !Flag.load(std::memory_order_relaxed) &&
           !Flag.exchange(true, std::memory_order_acquire);
  }

  void unlock() { Flag.store(false, std::memory_order_release); }

private:
  std::atomic<bool> Flag{false};
};

} // namespace mte4jni::support

#endif // MTE4JNI_SUPPORT_SPINLOCK_H
