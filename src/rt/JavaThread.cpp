//===- JavaThread.cpp - Mini-ART thread states ------------------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/rt/JavaThread.h"

#include "mte4jni/mte/ThreadState.h"
#include "mte4jni/rt/Runtime.h"

namespace mte4jni::rt {
namespace detail {
thread_local constinit JavaThread *CurrentJavaThread = nullptr;
} // namespace detail

JavaThread::JavaThread(Runtime &RT, uint64_t RuntimeId, std::string Name,
                       ThreadKind Kind)
    : RT(RT), RuntimeId(RuntimeId), Name(std::move(Name)), Kind(Kind) {
  detail::CurrentJavaThread = this;
  if (RT.config().TagChecksInNative) {
    // Under the MTE4JNI schemes every attached thread starts with TCO set:
    // managed code and support threads must not be tag-checked. Only the
    // native-method trampolines clear it (§3.3).
    mte::ThreadState::current().setTco(true);
  }
}

JavaThread::~JavaThread() {
  // Only the owning thread destroys its JavaThread (detach, or its
  // thread-local holder at thread exit), so the TLS slot is its own.
  detail::CurrentJavaThread = nullptr;
  Runtime::unlinkThread(*this);
}

void JavaThread::transitionToNative() {
  M4J_ASSERT(State == JavaThreadState::Runnable,
             "nested native transition");
  State = JavaThreadState::InNative;
  // §4.3: for regular native methods the TCO toggle is inserted inside the
  // thread state transition function.
  if (RT.config().TagChecksInNative)
    mte::ThreadState::current().setTco(false); // enable tag checks
}

void JavaThread::transitionToRunnable() {
  M4J_ASSERT(State == JavaThreadState::InNative,
             "transitionToRunnable outside native");
  if (RT.config().TagChecksInNative)
    mte::ThreadState::current().setTco(true); // suppress tag checks again
  State = JavaThreadState::Runnable;
}

} // namespace mte4jni::rt
