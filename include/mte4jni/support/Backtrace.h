//===- Backtrace.h - Simulated per-thread call frame stacks -------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// On Android, crash reports come from debuggerd unwinding the faulting
/// thread (Figure 4 of the paper). This simulator cannot rely on native
/// unwinding to describe *simulated* Java/JNI frames, so instead every
/// interesting entry point — trampolines, JNI interfaces, native methods,
/// simulated syscalls — pushes an explicit frame with ScopedFrame. A fault
/// captures the current thread's frame stack, giving the same qualitative
/// signal as the paper's logcat traces: how close the top frame is to the
/// code that actually misbehaved.
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_SUPPORT_BACKTRACE_H
#define MTE4JNI_SUPPORT_BACKTRACE_H

#include "mte4jni/support/Compiler.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mte4jni::support {

class FrameStack;

namespace detail {
/// The calling thread's FrameStack once created, else null. constinit on
/// the declaration too, so every read is a plain TLS load with no
/// dynamic-initialization guard call.
extern thread_local constinit FrameStack *CurrentFrameStack;
} // namespace detail

/// One simulated stack frame.
struct FrameInfo {
  /// Function name, e.g. "test_ofb" or "art::Runtime::Abort".
  const char *Function = "";
  /// Module the frame belongs to, e.g. "libmtetest.so" or "libart.so".
  const char *Module = "";

  std::string str() const;
};

/// The current thread's simulated frame stack. Cheap: push/pop of a POD.
class FrameStack {
public:
  /// Accessor for the calling thread's stack; created on first use.
  /// After that, one TLS load.
  M4J_ALWAYS_INLINE static FrameStack &current() {
    FrameStack *Stack = detail::CurrentFrameStack;
    if (M4J_LIKELY(Stack != nullptr))
      return *Stack;
    return createCurrent();
  }

  void push(const FrameInfo &Frame) { Frames.push_back(Frame); }
  void pop() {
    if (!Frames.empty())
      Frames.pop_back();
  }

  /// Snapshot, innermost frame first (like a crash dump).
  std::vector<FrameInfo> capture() const;

  size_t depth() const { return Frames.size(); }
  bool empty() const { return Frames.empty(); }

private:
  /// Constructs the calling thread's stack on its first current().
  static M4J_NOINLINE FrameStack &createCurrent();

  std::vector<FrameInfo> Frames;
};

/// RAII frame push/pop.
class ScopedFrame {
public:
  ScopedFrame(const char *Function, const char *Module) {
    FrameStack::current().push(FrameInfo{Function, Module});
  }
  ~ScopedFrame() { FrameStack::current().pop(); }

  ScopedFrame(const ScopedFrame &) = delete;
  ScopedFrame &operator=(const ScopedFrame &) = delete;
};

/// Renders a captured stack in the logcat "backtrace:" style used by
/// Figure 4 of the paper.
std::string renderBacktrace(const std::vector<FrameInfo> &Frames);

} // namespace mte4jni::support

#endif // MTE4JNI_SUPPORT_BACKTRACE_H
