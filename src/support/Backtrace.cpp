//===- Backtrace.cpp - Simulated per-thread call frame stacks ---------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/support/Backtrace.h"

#include "mte4jni/support/StringUtils.h"

namespace mte4jni::support {
namespace detail {
thread_local constinit FrameStack *CurrentFrameStack = nullptr;
} // namespace detail

std::string FrameInfo::str() const {
  return format("%s (%s)", Function, Module);
}

FrameStack &FrameStack::createCurrent() {
  thread_local FrameStack Stack;
  detail::CurrentFrameStack = &Stack;
  return Stack;
}

std::vector<FrameInfo> FrameStack::capture() const {
  // Innermost-first, like a crash dump.
  return std::vector<FrameInfo>(Frames.rbegin(), Frames.rend());
}

std::string renderBacktrace(const std::vector<FrameInfo> &Frames) {
  std::string Out = "backtrace:\n";
  unsigned Index = 0;
  for (const FrameInfo &Frame : Frames) {
    Out += format("  #%02u pc %016x  %s (%s)\n", Index,
                  0x1000u * (Index + 1), Frame.Module, Frame.Function);
    ++Index;
  }
  return Out;
}

} // namespace mte4jni::support
