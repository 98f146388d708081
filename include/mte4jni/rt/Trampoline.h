//===- Trampoline.h - Native method call bridges ---------------------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated equivalents of ART's native-method trampolines, including
/// the §4.3 TCO placement rules:
///
///   * Regular natives: the trampoline performs the thread state
///     transition, and the transition function flips TCO.
///   * @FastNative: no state transition — the trampoline itself flips TCO.
///   * @CriticalNative: may not touch the Java heap; TCO is left alone.
///
/// Each trampoline pushes simulated stack frames so fault backtraces look
/// like the paper's Figure 4 logcat output.
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_RT_TRAMPOLINE_H
#define MTE4JNI_RT_TRAMPOLINE_H

#include "mte4jni/mte/ThreadState.h"
#include "mte4jni/rt/JavaThread.h"
#include "mte4jni/rt/Runtime.h"
#include "mte4jni/support/Backtrace.h"
#include "mte4jni/support/TraceRing.h"

#include <type_traits>
#include <utility>

namespace mte4jni::rt {

/// Native method annotation kinds (§4.3).
enum class NativeKind : uint8_t {
  Regular,
  FastNative,
  CriticalNative,
};

const char *nativeKindName(NativeKind Kind);

namespace detail {

/// RAII for the regular-native thread state round trip.
class ScopedNativeTransition {
public:
  explicit ScopedNativeTransition(JavaThread &Thread) : Thread(Thread) {
    Thread.transitionToNative();
  }
  ~ScopedNativeTransition() { Thread.transitionToRunnable(); }

private:
  JavaThread &Thread;
};

/// RAII TCO toggle used by the @FastNative trampoline.
class ScopedFastNativeTco {
public:
  explicit ScopedFastNativeTco(bool Enable) : Enabled(Enable) {
    if (Enabled) {
      Saved = mte::ThreadState::current().tco();
      mte::ThreadState::current().setTco(false); // enable checks
    }
  }
  ~ScopedFastNativeTco() {
    if (Enabled)
      mte::ThreadState::current().setTco(Saved);
  }

private:
  bool Enabled;
  bool Saved = false;
};

} // namespace detail

/// Invokes \p Body as the native method \p MethodName on \p Thread with
/// the trampoline behaviour for \p Kind. Returns Body's result.
template <typename Fn>
auto callNative(JavaThread &Thread, NativeKind Kind, const char *MethodName,
                Fn &&Body) -> decltype(Body()) {
  const bool WantTagChecks = Thread.runtime().config().TagChecksInNative;
  support::FlightScope Crossing(support::FlightKind::JniCrossing,
                                static_cast<uint8_t>(Kind));
  // Native-call entry is the runtime's safepoint: the body runs inside a
  // runtime critical section, so a GC stop-the-world pause either ends
  // before the native method starts touching payloads or waits until the
  // call returns (or reaches a Runtime::safepointPoll checkpoint). The
  // bracket stores only this thread's own claim; JNI criticals/pins taken
  // inside the body nest for free (thread-local depth).
  ScopedCritical Safepoint(Thread.runtime());
  switch (Kind) {
  case NativeKind::Regular: {
    support::ScopedFrame Tramp("art_quick_generic_jni_trampoline",
                               "libart.so");
    detail::ScopedNativeTransition Transition(Thread);
    support::ScopedFrame Method(MethodName, "libapp.so");
    return Body();
  }
  case NativeKind::FastNative: {
    support::ScopedFrame Tramp("art_jni_fast_trampoline", "libart.so");
    detail::ScopedFastNativeTco Tco(WantTagChecks);
    support::ScopedFrame Method(MethodName, "libapp.so");
    return Body();
  }
  case NativeKind::CriticalNative: {
    // @CriticalNative code may not access the Java heap; no transition,
    // no TCO change.
    support::ScopedFrame Tramp("art_jni_critical_trampoline", "libart.so");
    support::ScopedFrame Method(MethodName, "libapp.so");
    return Body();
  }
  }
  M4J_UNREACHABLE("bad NativeKind");
}

} // namespace mte4jni::rt

#endif // MTE4JNI_RT_TRAMPOLINE_H
