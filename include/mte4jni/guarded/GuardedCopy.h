//===- GuardedCopy.h - ART's guarded-copy JNI checking ---------------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reimplementation of the baseline the paper compares against (§2.3,
/// Figure 2): ART CheckJNI's guarded copy. When native code requests a
/// buffer, the object payload is copied into a fresh allocation flanked by
/// two red zones pre-filled with a repeating canary string. At release the
/// red zones are verified; a changed byte means native code wrote out of
/// bounds, and the error is reported *at the release interface* with the
/// offset of the corruption — far from the faulting access, as Figure 4a
/// shows.
///
/// Like CheckJNI ForceCopy, a Release copies the buffer back into the heap
/// object (except with JNI_ABORT) and re-verifies an Adler-32 of the
/// payload taken at Get, warning when a JNI_ABORT release discards
/// changes. The checksum is a large part of the scheme's O(n) cost.
///
/// Inherited limitations (all reproduced, §2.3): out-of-bounds *reads* are
/// invisible; writes that skip past the red zones are invisible; detection
/// is deferred to release.
///
/// Counts go to the metrics registry: guarded/acquires, guarded/releases
/// (a JNI_COMMIT release keeps the copy live and is not one),
/// guarded/bytes_copied (both directions) and
/// guarded/corruptions_detected.
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_GUARDED_GUARDEDCOPY_H
#define MTE4JNI_GUARDED_GUARDEDCOPY_H

#include "mte4jni/jni/CheckPolicy.h"
#include "mte4jni/support/SpinLock.h"

#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace mte4jni::guarded {

struct GuardedCopyOptions {
  /// Red-zone size on EACH side of the copy.
  uint64_t RedZoneBytes = 2048;
};

class GuardedCopyPolicy final : public jni::CheckPolicy {
public:
  explicit GuardedCopyPolicy(const GuardedCopyOptions &Options = {});
  ~GuardedCopyPolicy() override;

  const char *name() const override { return "guarded-copy"; }

  uint64_t acquire(const jni::JniBufferInfo &Info, bool &IsCopy) override;
  void release(const jni::JniBufferInfo &Info, uint64_t NativeBits,
               jni::jint Mode) override;

  uint64_t acquireScratch(uint64_t Bytes, const char *Interface) override;
  void releaseScratch(uint64_t NativeBits, uint64_t Bytes,
                      const char *Interface) override;

  bool exposesDirectPointers() const override { return false; }

  /// The canary pattern the red zones are filled with (ART uses a
  /// recognisable ASCII string so hex dumps are self-describing).
  static const char *canaryPattern();

private:
  struct Block {
    uint8_t *Allocation;  ///< base of [red zone | payload | red zone]
    uint64_t PayloadBytes;
    uint64_t OriginalData; ///< heap payload address (0 for scratch)
    uint32_t Adler32 = 1; ///< checksum of the payload at Get time
  };

  uint64_t makeBlock(uint64_t PayloadBytes, const void *InitFrom);
  /// Verifies red zones; returns -1 when intact, else the byte offset of
  /// the first corruption relative to the payload start (may be negative
  /// for underflow, encoded via the OffsetOut parameter).
  bool verifyRedZones(const Block &B, int64_t &OffsetOut) const;
  void reportCorruption(const jni::JniBufferInfo &Info, const Block &B,
                        int64_t Offset, const char *Interface);
  void destroyBlock(const jni::JniBufferInfo &Info, uint64_t Bits,
                    jni::jint Mode, const char *Interface, bool CopyBack);

  GuardedCopyOptions Options;

  mutable support::SpinLock Lock;
  std::unordered_map<uint64_t, Block> Live; ///< returned bits -> block
};

} // namespace mte4jni::guarded

#endif // MTE4JNI_GUARDED_GUARDEDCOPY_H
