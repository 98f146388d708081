//===- Mte4JniPolicy.cpp - The MTE4JNI check policy --------------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/core/Mte4JniPolicy.h"

namespace mte4jni::core {

Mte4JniPolicy::Mte4JniPolicy(const TagAllocatorOptions &Options,
                             uint64_t ScratchArenaBytes)
    : Allocator(Options), Scratch(ScratchArenaBytes) {}

uint64_t Mte4JniPolicy::acquire(const jni::JniBufferInfo &Info,
                                bool &IsCopy) {
  // Direct pointer, tagged: the core §2.4 idea — no copy, the hardware
  // (here: the simulator's checked-access path) does the checking.
  IsCopy = false;
  return Allocator.acquire(Info.DataBegin, Info.DataBegin + Info.Bytes);
}

void Mte4JniPolicy::release(const jni::JniBufferInfo &Info,
                            uint64_t NativeBits, jni::jint Mode) {
  // JNI_COMMIT means the caller keeps using the buffer: the tag must stay.
  if (Mode == jni::JNI_COMMIT)
    return;
  (void)NativeBits; // Algorithm 2 keys on the object's payload address
  Allocator.release(Info.DataBegin, Info.DataBegin + Info.Bytes);
}

uint64_t Mte4JniPolicy::acquireScratch(uint64_t Bytes,
                                       const char *Interface) {
  (void)Interface;
  void *Buf = Scratch.allocate(Bytes);
  if (!Buf)
    return 0;
  uint64_t Begin = reinterpret_cast<uint64_t>(Buf);
  return Allocator.acquire(Begin, Begin + Bytes);
}

void Mte4JniPolicy::releaseScratch(uint64_t NativeBits, uint64_t Bytes,
                                   const char *Interface) {
  (void)Interface;
  uint64_t Begin = mte::addressOf(NativeBits);
  Allocator.release(Begin, Begin + Bytes);
  // Eager reclaim before the arena reuses the address: scratch buffers
  // recycle immediately, and the next tenant of these bytes must not
  // inherit a lingering tag (nor keep this one valid for a dangling
  // pointer into freed scratch).
  Allocator.reclaimRange(Begin, Begin + Bytes);
  Scratch.deallocate(reinterpret_cast<void *>(Begin));
}

} // namespace mte4jni::core
