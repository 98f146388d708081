//===- Fault.cpp - Tag-check fault records and the fault log --------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/mte/Fault.h"

#include "mte4jni/support/Metrics.h"
#include "mte4jni/support/StringUtils.h"
#include "mte4jni/support/TraceRing.h"

#include <mutex>

namespace mte4jni::mte {

namespace {

/// Flattens a FaultRecord into the telemetry ring's layering-neutral shape.
support::FaultEvent toFaultEvent(const FaultRecord &Record) {
  support::FaultEvent Event;
  Event.Kind = faultKindName(Record.Kind);
  Event.HasAddress = Record.HasAddress;
  Event.Address = Record.Address;
  Event.PointerTag = Record.PointerTag;
  Event.MemoryTag = Record.MemoryTag;
  Event.IsWrite = Record.IsWrite;
  Event.AccessSize = Record.AccessSize;
  Event.ThreadId = Record.ThreadId;
  std::string Trace;
  for (const support::FrameInfo &Frame : Record.Backtrace) {
    if (!Trace.empty())
      Trace += " <- ";
    Trace += Frame.Function;
  }
  Event.Backtrace = std::move(Trace);
  return Event;
}

} // namespace

const char *faultKindName(FaultKind Kind) {
  switch (Kind) {
  case FaultKind::TagMismatchSync:
    return "SEGV_MTESERR (sync tag-check fault)";
  case FaultKind::TagMismatchAsync:
    return "SEGV_MTEAERR (async tag-check fault)";
  case FaultKind::GuardedCopyCorruption:
    return "guarded-copy red-zone corruption";
  case FaultKind::JniCheckError:
    return "JNI check error";
  }
  return "?";
}

std::string FaultRecord::str() const {
  std::string Out;
  Out += support::format("signal: %s\n", faultKindName(Kind));
  if (HasAddress)
    Out += support::format("fault addr: 0x%016llx (ptr tag %u, mem tag %u, "
                           "%s of %u bytes)\n",
                           static_cast<unsigned long long>(Address),
                           unsigned(PointerTag), unsigned(MemoryTag),
                           IsWrite ? "write" : "read", AccessSize);
  else
    Out += "fault addr: --------  (not available for async reports)\n";
  if (!DeliveredAtSyscall.empty())
    Out += support::format("delivered at syscall: %s\n",
                           DeliveredAtSyscall.c_str());
  if (!Description.empty())
    Out += Description + "\n";
  Out += support::format("%zu total frames\n", Backtrace.size());
  Out += support::renderBacktrace(Backtrace);
  return Out;
}

void FaultLog::append(FaultRecord Record) {
  // Every detected violation — sync, async-delivered, guarded-copy, JNI
  // check — flows through here, so this is where the process-wide fault
  // telemetry ring is fed.
  support::Metrics::faultRing().record(toFaultEvent(Record));
  // Faults are rare: stamp them into the faulting thread's flight ring as
  // instant events so a trace export shows each fault in-lane next to the
  // JNI/tag-table activity that led up to it.
  if (support::obs::coldArmed()) {
    uint64_t Now = support::monotonicNanos();
    support::FlightRecorder::record(
        support::FlightKind::Fault,
        Record.Kind == FaultKind::TagMismatchAsync ? 1 : 0,
        Record.HasAddress ? static_cast<uint32_t>(Record.Address) : 0, Now, 0);
  }
  std::lock_guard<support::SpinLock> Guard(Lock);
  ++Total;
  ++Counts[static_cast<size_t>(Record.Kind)];
  if (Records.size() == kMaxStored)
    Records.pop_front();
  Records.push_back(std::move(Record));
}

std::vector<FaultRecord> FaultLog::snapshot() const {
  std::lock_guard<support::SpinLock> Guard(Lock);
  return {Records.begin(), Records.end()};
}

void FaultLog::clear() {
  std::lock_guard<support::SpinLock> Guard(Lock);
  Records.clear();
  Total = 0;
  for (uint64_t &Count : Counts)
    Count = 0;
}

uint64_t FaultLog::totalCount() const {
  std::lock_guard<support::SpinLock> Guard(Lock);
  return Total;
}

uint64_t FaultLog::countOf(FaultKind Kind) const {
  std::lock_guard<support::SpinLock> Guard(Lock);
  return Counts[static_cast<size_t>(Kind)];
}

} // namespace mte4jni::mte
