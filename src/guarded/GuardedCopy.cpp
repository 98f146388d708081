//===- GuardedCopy.cpp - ART's guarded-copy JNI checking ---------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/guarded/GuardedCopy.h"

#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/mte/ThreadState.h"
#include "mte4jni/support/Backtrace.h"
#include "mte4jni/support/Logging.h"
#include "mte4jni/support/Metrics.h"
#include "mte4jni/support/StringUtils.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace mte4jni::guarded {

namespace {
// The recognisable ASCII canary, in the spirit of CheckJNI's
// "JNI BUFFER RED ZONE" pattern.
constexpr char kCanary[] = "JNI BUFFER RED ZONE ";
constexpr uint64_t kCanaryLen = sizeof(kCanary) - 1;

/// A pre-built block of repeated canary patterns so red zones can be
/// filled/verified with chunked memcpy/memcmp (as ART does) instead of a
/// byte-at-a-time loop.
constexpr uint64_t kPatternBlock = kCanaryLen * 50; // 1000 bytes
const uint8_t *patternBlock() {
  static uint8_t Block[kPatternBlock];
  static bool Ready = [] {
    for (uint64_t I = 0; I < kPatternBlock; ++I)
      Block[I] = static_cast<uint8_t>(kCanary[I % kCanaryLen]);
    return true;
  }();
  (void)Ready;
  return Block;
}

void fillCanary(uint8_t *Dst, uint64_t Bytes) {
  const uint8_t *Pattern = patternBlock();
  uint64_t Offset = 0;
  while (Offset < Bytes) {
    uint64_t Chunk = std::min(Bytes - Offset, kPatternBlock);
    std::memcpy(Dst + Offset, Pattern, Chunk);
    Offset += Chunk;
  }
}

/// Returns the offset of the first corrupted byte, or -1 when intact.
int64_t scanCanary(const uint8_t *Zone, uint64_t Bytes) {
  const uint8_t *Pattern = patternBlock();
  uint64_t Offset = 0;
  while (Offset < Bytes) {
    uint64_t Chunk = std::min(Bytes - Offset, kPatternBlock);
    if (M4J_UNLIKELY(std::memcmp(Zone + Offset, Pattern, Chunk) != 0)) {
      for (uint64_t I = 0; I < Chunk; ++I)
        if (Zone[Offset + I] != Pattern[I])
          return static_cast<int64_t>(Offset + I);
    }
    Offset += Chunk;
  }
  return -1;
}

struct GuardedMetrics {
  support::Counter &Acquires = support::Metrics::counter("guarded/acquires");
  support::Counter &Releases = support::Metrics::counter("guarded/releases");
  support::Counter &BytesCopied =
      support::Metrics::counter("guarded/bytes_copied");
  support::Counter &CorruptionsDetected =
      support::Metrics::counter("guarded/corruptions_detected");
};

GuardedMetrics &guardedMetrics() {
  static GuardedMetrics M;
  return M;
}
} // namespace

/// Adler-32 as ART's GuardedCopy uses (zlib definition).
uint32_t adler32(const uint8_t *Data, uint64_t Bytes) {
  constexpr uint32_t kMod = 65521;
  uint32_t A = 1, B = 0;
  while (Bytes > 0) {
    // 5552 is the largest run that cannot overflow 32-bit accumulators.
    uint64_t Run = std::min<uint64_t>(Bytes, 5552);
    for (uint64_t I = 0; I < Run; ++I) {
      A += Data[I];
      B += A;
    }
    A %= kMod;
    B %= kMod;
    Data += Run;
    Bytes -= Run;
  }
  return (B << 16) | A;
}

const char *GuardedCopyPolicy::canaryPattern() { return kCanary; }

GuardedCopyPolicy::GuardedCopyPolicy(const GuardedCopyOptions &Options)
    : Options(Options) {}

GuardedCopyPolicy::~GuardedCopyPolicy() {
  // Free anything native code leaked.
  for (auto &[Bits, B] : Live)
    std::free(B.Allocation);
}

uint64_t GuardedCopyPolicy::makeBlock(uint64_t PayloadBytes,
                                      const void *InitFrom) {
  uint64_t RZ = Options.RedZoneBytes;
  auto *Alloc = static_cast<uint8_t *>(std::malloc(RZ + PayloadBytes + RZ));
  M4J_ASSERT(Alloc != nullptr, "guarded copy allocation failed");
  fillCanary(Alloc, RZ);
  if (InitFrom)
    std::memcpy(Alloc + RZ, InitFrom, PayloadBytes);
  else
    std::memset(Alloc + RZ, 0, PayloadBytes);
  fillCanary(Alloc + RZ + PayloadBytes, RZ);
  return reinterpret_cast<uint64_t>(Alloc + RZ);
}

uint64_t GuardedCopyPolicy::acquire(const jni::JniBufferInfo &Info,
                                    bool &IsCopy) {
  IsCopy = true;
  uint64_t Bits =
      makeBlock(Info.Bytes, reinterpret_cast<const void *>(Info.DataBegin));
  Block B;
  B.Allocation = reinterpret_cast<uint8_t *>(Bits) - Options.RedZoneBytes;
  B.PayloadBytes = Info.Bytes;
  B.OriginalData = Info.DataBegin;
  B.Adler32 = adler32(reinterpret_cast<const uint8_t *>(Bits), Info.Bytes);
  {
    std::lock_guard<support::SpinLock> Guard(Lock);
    Live.emplace(Bits, B);
  }
  guardedMetrics().Acquires.add();
  guardedMetrics().BytesCopied.add(Info.Bytes);
  return Bits;
}

bool GuardedCopyPolicy::verifyRedZones(const Block &B,
                                       int64_t &OffsetOut) const {
  const uint8_t *Front = B.Allocation;
  const uint8_t *Back =
      B.Allocation + Options.RedZoneBytes + B.PayloadBytes;
  int64_t FrontHit = scanCanary(Front, Options.RedZoneBytes);
  if (FrontHit >= 0) {
    // Offset relative to payload start: negative (underflow).
    OffsetOut = FrontHit - static_cast<int64_t>(Options.RedZoneBytes);
    return false;
  }
  int64_t BackHit = scanCanary(Back, Options.RedZoneBytes);
  if (BackHit >= 0) {
    OffsetOut = static_cast<int64_t>(B.PayloadBytes) + BackHit;
    return false;
  }
  OffsetOut = 0;
  return true;
}

void GuardedCopyPolicy::reportCorruption(const jni::JniBufferInfo &Info,
                                         const Block &B, int64_t Offset,
                                         const char *Interface) {
  guardedMetrics().CorruptionsDetected.add();
  // CheckJNI aborts the runtime at the release call; the backtrace
  // therefore shows the abort machinery, not the faulting native write
  // (Figure 4a).
  support::ScopedFrame CheckFrame("art::GuardedCopy::Check", "libart.so");
  support::ScopedFrame AbortFrame("art::Runtime::Abort", "libart.so");

  mte::FaultRecord Record;
  Record.Kind = mte::FaultKind::GuardedCopyCorruption;
  Record.HasAddress = true;
  Record.Address = mte::addressOf(
      reinterpret_cast<uint64_t>(B.Allocation) + Options.RedZoneBytes +
      static_cast<uint64_t>(Offset));
  Record.DebugAddress = Record.Address;
  Record.IsWrite = true;
  Record.ThreadId = mte::ThreadState::current().threadId();
  Record.Description = support::format(
      "JNI: unexpected modification of red zone: %s of buffer for %s; "
      "corrupted byte at payload offset %lld (payload is %llu bytes)",
      Offset < 0 ? "underflow" : "overflow", Interface,
      static_cast<long long>(Offset),
      static_cast<unsigned long long>(B.PayloadBytes));
  Record.Backtrace = support::FrameStack::current().capture();
  mte::MteSystem::instance().deliverFault(std::move(Record));
}

void GuardedCopyPolicy::destroyBlock(const jni::JniBufferInfo &Info,
                                     uint64_t Bits, jni::jint Mode,
                                     const char *Interface, bool CopyBack) {
  Block B;
  {
    std::lock_guard<support::SpinLock> Guard(Lock);
    auto It = Live.find(Bits);
    if (It == Live.end()) {
      // Native code released a pointer we never handed out.
      mte::FaultRecord Record;
      Record.Kind = mte::FaultKind::JniCheckError;
      Record.Description = support::format(
          "%s: pointer %p was not issued by a guarded-copy Get interface",
          Interface, reinterpret_cast<void *>(Bits));
      Record.ThreadId = mte::ThreadState::current().threadId();
      Record.Backtrace = support::FrameStack::current().capture();
      mte::MteSystem::instance().deliverFault(std::move(Record));
      return;
    }
    B = It->second;
    Live.erase(It);
  }

  int64_t Offset = 0;
  if (!verifyRedZones(B, Offset))
    reportCorruption(Info, B, Offset, Interface);

  // ART recomputes the payload checksum at release; with JNI_ABORT a
  // modified buffer earns a CheckJNI warning (the caller asked for the
  // changes to be thrown away).
  uint32_t Now =
      adler32(B.Allocation + Options.RedZoneBytes, B.PayloadBytes);
  if (Mode == jni::JNI_ABORT && Now != B.Adler32)
    support::logWarn("CheckJNI",
                     "buffer for %s was modified but released with "
                     "JNI_ABORT (changes discarded)",
                     Interface);

  if (CopyBack && Mode != jni::JNI_ABORT && B.OriginalData != 0) {
    std::memcpy(reinterpret_cast<void *>(B.OriginalData),
                B.Allocation + Options.RedZoneBytes, B.PayloadBytes);
    guardedMetrics().BytesCopied.add(B.PayloadBytes);
  }

  if (Mode != jni::JNI_COMMIT) {
    std::free(B.Allocation);
    guardedMetrics().Releases.add();
  } else {
    // JNI_COMMIT: copy back but keep the buffer live for further use.
    std::lock_guard<support::SpinLock> Guard(Lock);
    Live.emplace(Bits, B);
  }
}

void GuardedCopyPolicy::release(const jni::JniBufferInfo &Info,
                                uint64_t NativeBits, jni::jint Mode) {
  destroyBlock(Info, NativeBits, Mode, Info.Interface, /*CopyBack=*/true);
}

uint64_t GuardedCopyPolicy::acquireScratch(uint64_t Bytes,
                                           const char *Interface) {
  (void)Interface;
  uint64_t Bits = makeBlock(Bytes, nullptr);
  Block B;
  B.Allocation = reinterpret_cast<uint8_t *>(Bits) - Options.RedZoneBytes;
  B.PayloadBytes = Bytes;
  B.OriginalData = 0;
  {
    std::lock_guard<support::SpinLock> Guard(Lock);
    Live.emplace(Bits, B);
  }
  guardedMetrics().Acquires.add();
  return Bits;
}

void GuardedCopyPolicy::releaseScratch(uint64_t NativeBits, uint64_t Bytes,
                                       const char *Interface) {
  (void)Bytes;
  jni::JniBufferInfo Info;
  Info.Interface = Interface;
  destroyBlock(Info, NativeBits, /*Mode=*/0, Interface, /*CopyBack=*/false);
}

} // namespace mte4jni::guarded
