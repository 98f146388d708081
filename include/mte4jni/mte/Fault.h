//===- Fault.h - Tag-check fault records and the fault log ---------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// When a simulated tag check fails, the simulator produces a FaultRecord —
/// the analog of the SIGSEGV + logcat tombstone the paper shows in Figure 4.
/// Records land in the process-wide FaultLog and are offered to an optional
/// fault handler which decides whether execution continues (the default, so
/// tests can inspect the log) or the process aborts (what a real device
/// does).
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_MTE_FAULT_H
#define MTE4JNI_MTE_FAULT_H

#include "mte4jni/mte/Tag.h"
#include "mte4jni/support/Backtrace.h"
#include "mte4jni/support/SpinLock.h"

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace mte4jni::mte {

enum class FaultKind : uint8_t {
  /// Synchronous tag-check fault (SEGV_MTESERR): precise address + frame.
  TagMismatchSync,
  /// Asynchronous tag-check fault (SEGV_MTEAERR): delivered at the next
  /// simulated syscall; carries no faulting address.
  TagMismatchAsync,
  /// Guarded-copy red-zone corruption detected at the JNI release call.
  GuardedCopyCorruption,
  /// A JNI-level error (bad bounds in Get/SetArrayRegion, bad release ptr).
  JniCheckError,
};

const char *faultKindName(FaultKind Kind);

/// One detected memory-safety violation.
struct FaultRecord {
  FaultKind Kind = FaultKind::TagMismatchSync;

  /// Faulting address. Valid only when HasAddress — asynchronous MTE
  /// reports (SEGV_MTEAERR) carry no address, matching Linux behaviour.
  uint64_t Address = 0;
  bool HasAddress = false;

  /// Simulator-only ground truth for tests; a real kernel never reports
  /// this for async faults. 0 when unknown.
  uint64_t DebugAddress = 0;

  TagValue PointerTag = 0;
  TagValue MemoryTag = 0;
  bool IsWrite = false;
  uint32_t AccessSize = 0;

  uint64_t ThreadId = 0;

  /// For async faults: the simulated syscall at which the latched fault was
  /// delivered (e.g. "getuid", "write").
  std::string DeliveredAtSyscall;

  /// Snapshot of the simulated frame stack at *report* time. For sync
  /// faults this is the faulting access; for async faults it is the
  /// syscall site; for guarded copy it is the release interface.
  std::vector<support::FrameInfo> Backtrace;

  /// Free-form detail (guarded copy reports the corrupted offset here).
  std::string Description;

  /// Renders the record in a logcat-tombstone-like format (Figure 4).
  std::string str() const;
};

/// Outcome of a fault handler.
enum class FaultAction : uint8_t {
  /// Record and keep running (simulator default; lets tests observe).
  Continue,
  /// Emulate the real device: print the tombstone and abort the process.
  Abort,
};

/// Handler invoked on the faulting thread for every record.
using FaultHandler = FaultAction (*)(void *Context, const FaultRecord &Record);

/// Process-wide, thread-safe fault log. Bounded: it keeps the newest
/// kMaxStored records, dropping the oldest; the counters count every fault.
class FaultLog {
public:
  static constexpr size_t kMaxStored = 1024;

  void append(FaultRecord Record);

  /// Stored records, oldest first.
  std::vector<FaultRecord> snapshot() const;
  void clear();

  /// Total faults observed (including ones beyond the storage bound).
  uint64_t totalCount() const;
  uint64_t countOf(FaultKind Kind) const;
  bool empty() const { return totalCount() == 0; }

private:
  mutable support::SpinLock Lock;
  std::deque<FaultRecord> Records;
  uint64_t Total = 0;
  uint64_t Counts[4] = {0, 0, 0, 0};
};

} // namespace mte4jni::mte

#endif // MTE4JNI_MTE_FAULT_H
