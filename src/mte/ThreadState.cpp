//===- ThreadState.cpp - Per-thread MTE control state ---------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/mte/ThreadState.h"

#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/support/Backtrace.h"
#include "mte4jni/support/Metrics.h"

#include <atomic>

namespace mte4jni::mte {
namespace detail {
thread_local constinit ThreadState *CurrentThreadState = nullptr;
} // namespace detail

namespace {
std::atomic<uint64_t> NextThreadId{1};
} // namespace

ThreadState::ThreadState()
    : IrgRng(MteSystem::instance().nextThreadSeed()),
      Id(NextThreadId.fetch_add(1, std::memory_order_relaxed)) {
  // New threads inherit the process-default TCF mode, like a freshly
  // cloned Linux task inherits PR_MTE_TCF_*.
  Mode = MteSystem::instance().processCheckMode();
  refreshChecksOn();
  MteSystem::instance().registerThread(this);
}

ThreadState::~ThreadState() {
  MteSystem::instance().unregisterThread(this);
}

ThreadState &ThreadState::createCurrent() {
  thread_local ThreadState State;
  detail::CurrentThreadState = &State;
  return State;
}

void ThreadState::latchAsyncFault(uint64_t DebugAddress, TagValue PointerTag,
                                  TagValue MemoryTag, bool IsWrite,
                                  uint32_t Size) {
  MteSystem::instance().stats().AsyncFaultsLatched.fetch_add(
      1, std::memory_order_relaxed);
  if (AsyncPending)
    return; // TFSR is a single sticky bit; only the first fault is kept.
  AsyncPending = true;
  PendingDebugAddress = DebugAddress;
  PendingPointerTag = PointerTag;
  PendingMemoryTag = MemoryTag;
  PendingIsWrite = IsWrite;
  PendingSize = Size;
}

void ThreadState::drainAsync(const char *SyscallName) {
  if (!AsyncPending)
    return;
  AsyncPending = false;

  FaultRecord Record;
  Record.Kind = FaultKind::TagMismatchAsync;
  // Matching SEGV_MTEAERR: no faulting address in the report. The debug
  // address is simulator ground truth for tests only.
  Record.HasAddress = false;
  Record.Address = 0;
  Record.DebugAddress = PendingDebugAddress;
  Record.PointerTag = PendingPointerTag;
  Record.MemoryTag = PendingMemoryTag;
  Record.IsWrite = PendingIsWrite;
  Record.AccessSize = PendingSize;
  Record.ThreadId = Id;
  Record.DeliveredAtSyscall = SyscallName;
  // The backtrace is taken *now*, at the syscall — this is why Figure 4c's
  // trace points at getuid() instead of the faulting native method.
  Record.Backtrace = support::FrameStack::current().capture();

  MteSystem::instance().stats().AsyncFaultsDelivered.fetch_add(
      1, std::memory_order_relaxed);
  static support::Counter &Delivered =
      support::Metrics::counter("mte/fault/async_delivered");
  Delivered.add();
  MteSystem::instance().deliverFault(std::move(Record));
}

void ThreadState::cacheRegion(std::shared_ptr<const TaggedRegion> Region,
                              uint64_t Epoch) {
  CachedRegionRef = std::move(Region);
  CachedRegion = CachedRegionRef.get();
  CachedRegionEpoch = CachedRegion ? Epoch : 0;
}

void ThreadState::syncModeFromProcess() {
  Mode = MteSystem::instance().processCheckMode();
  refreshChecksOn();
}

} // namespace mte4jni::mte
