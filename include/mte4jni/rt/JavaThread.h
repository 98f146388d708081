//===- JavaThread.h - Mini-ART thread states ------------------------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime's view of a thread. Mutator threads move between Runnable
/// (executing "Java" code) and InNative (inside a native method); support
/// threads (GC) stay Runnable. The state-transition functions are the
/// paper's §4.3 insertion point: when the runtime is configured for
/// MTE4JNI, entering native clears TCO (enabling tag checks for exactly
/// the code that holds raw Java-heap pointers) and leaving native sets it
/// again.
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_RT_JAVATHREAD_H
#define MTE4JNI_RT_JAVATHREAD_H

#include "mte4jni/support/Compiler.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace mte4jni::rt {

class JavaThread;
class Runtime;

namespace detail {
/// The calling thread's JavaThread while it is attached, else null.
/// constinit on the declaration too, so every read is a plain TLS load
/// with no dynamic-initialization guard call.
extern thread_local constinit JavaThread *CurrentJavaThread;
} // namespace detail

enum class ThreadKind : uint8_t {
  /// An application thread that runs Java code and calls native methods.
  Mutator,
  /// A runtime support thread (GC); accesses the heap with untagged
  /// pointers and never goes through JNI trampolines.
  GcSupport,
};

enum class JavaThreadState : uint8_t {
  Runnable, ///< executing managed code
  InNative, ///< inside a native method
};

class JavaThread {
public:
  /// The calling thread's JavaThread, or nullptr when not attached. One
  /// TLS load.
  M4J_ALWAYS_INLINE static JavaThread *currentOrNull() {
    return detail::CurrentJavaThread;
  }

  Runtime &runtime() const { return RT; }
  const std::string &name() const { return Name; }
  ThreadKind kind() const { return Kind; }
  JavaThreadState state() const { return State; }

  /// §4.3: the Java->native thread state transition. For regular native
  /// methods the trampoline calls this, and this is where the TCO toggle
  /// lives.
  void transitionToNative();

  /// The native->Java transition; restores TCO.
  void transitionToRunnable();

  /// Per-thread JNI critical-section nesting depth.
  uint32_t criticalDepth() const { return CriticalDepth; }

  /// Unlinks the thread from its runtime's thread list, if that runtime
  /// is still live. Runs at detachCurrentThread() and, for a thread that
  /// exits attached, at thread exit.
  ~JavaThread();

private:
  friend class Runtime;
  JavaThread(Runtime &RT, uint64_t RuntimeId, std::string Name,
             ThreadKind Kind);

  Runtime &RT;
  /// RT's never-reused identity. A later Runtime can reuse RT's address,
  /// so the destructor matches on this, not on &RT.
  const uint64_t RuntimeId;
  std::string Name;
  ThreadKind Kind;
  JavaThreadState State = JavaThreadState::Runnable;
  uint32_t CriticalDepth = 0;
  /// This thread's safepoint claim: 1 while it is inside a runtime critical
  /// section and not parked at a safepoint. Only this thread stores it; a
  /// collector loads it under Runtime::PauseLock to decide the world has
  /// drained (DESIGN.md §11). Its own cache line, so the stores on every
  /// native call never share a line with another thread's claim.
  alignas(64) std::atomic<uint32_t> Claim{0};
};

} // namespace mte4jni::rt

#endif // MTE4JNI_RT_JAVATHREAD_H
