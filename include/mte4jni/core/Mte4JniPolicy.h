//===- Mte4JniPolicy.h - The MTE4JNI check policy --------------------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's contribution as a JNI check policy (§3, §4.2):
///
///   * Get interfaces run Algorithm 1 on the object's payload range and
///     hand native code the *direct* pointer with the allocation tag in
///     bits 56..59 — no copying.
///   * Release interfaces run Algorithm 2; the last releasing thread
///     clears the granule tags.
///   * GetStringUTFChars buffers (which are genuine native copies) come
///     from a PROT_MTE scratch arena and are tagged the same way.
///
/// Whether checking is synchronous or asynchronous is a property of the
/// runtime's TCF mode, not of this policy; the Session façade combines
/// them into the four schemes of §5.1.
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_CORE_MTE4JNIPOLICY_H
#define MTE4JNI_CORE_MTE4JNIPOLICY_H

#include "mte4jni/core/TagAllocator.h"
#include "mte4jni/jni/CheckPolicy.h"
#include "mte4jni/mte/TaggedArena.h"

#include <memory>

namespace mte4jni::core {

class Mte4JniPolicy final : public jni::CheckPolicy {
public:
  /// \p ScratchArenaBytes is the capacity of the PROT_MTE scratch arena
  /// for UTF-8 copies.
  explicit Mte4JniPolicy(const TagAllocatorOptions &Options = {},
                         uint64_t ScratchArenaBytes = 8ull << 20);

  const char *name() const override { return "mte4jni"; }

  uint64_t acquire(const jni::JniBufferInfo &Info, bool &IsCopy) override;
  void release(const jni::JniBufferInfo &Info, uint64_t NativeBits,
               jni::jint Mode) override;

  uint64_t acquireScratch(uint64_t Bytes, const char *Interface) override;
  void releaseScratch(uint64_t NativeBits, uint64_t Bytes,
                      const char *Interface) override;

  bool exposesDirectPointers() const override { return true; }

  TagAllocator &allocator() { return Allocator; }

private:
  TagAllocator Allocator;
  mte::TaggedArena Scratch;
};

} // namespace mte4jni::core

#endif // MTE4JNI_CORE_MTE4JNIPOLICY_H
