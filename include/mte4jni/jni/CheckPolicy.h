//===- CheckPolicy.h - Pluggable JNI out-of-bounds checking ----------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The protection-scheme seam. Every Table-1 JNI interface funnels through
/// a CheckPolicy when it hands a raw buffer pointer to native code and when
/// native code releases it. The four schemes the paper evaluates are four
/// implementations:
///
///   * NoProtectionPolicy      — direct pointers, no checking (§5.1 baseline)
///   * GuardedCopyPolicy       — ART's CheckJNI "ForceCopy" red zones (§2.3)
///   * Mte4JniPolicy (sync)    — the paper's contribution, sync TCF
///   * Mte4JniPolicy (async)   — the paper's contribution, async TCF
///
/// The 64-bit value a policy returns is what native code receives: under
/// MTE4JNI its bits 56..59 carry the pointer tag.
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_JNI_CHECKPOLICY_H
#define MTE4JNI_JNI_CHECKPOLICY_H

#include "mte4jni/jni/JniTypes.h"

#include <cstdint>

namespace mte4jni::jni {

/// Describes the buffer a JNI interface is about to expose / release.
struct JniBufferInfo {
  /// The heap object, or nullptr for runtime-allocated native buffers
  /// (GetStringUTFChars copies).
  rt::ObjectHeader *Obj = nullptr;
  /// Payload begin address (object data), or 0 for scratch buffers.
  uint64_t DataBegin = 0;
  /// Payload size in bytes.
  uint64_t Bytes = 0;
  /// The JNI interface name, for diagnostics ("GetIntArrayElements", ...).
  const char *Interface = "";
};

class CheckPolicy {
public:
  virtual ~CheckPolicy();

  virtual const char *name() const = 0;

  /// Called when a Get interface exposes an object payload. Returns the
  /// pointer bits native code receives; the address part is always a
  /// host-dereferenceable buffer (the original payload, or the policy's
  /// copy). Sets \p IsCopy per JNI semantics.
  virtual uint64_t acquire(const JniBufferInfo &Info, bool &IsCopy) = 0;

  /// Called by the matching Release interface. \p NativeBits is the value
  /// native code got from acquire(); \p Mode is 0 / JNI_COMMIT / JNI_ABORT.
  virtual void release(const JniBufferInfo &Info, uint64_t NativeBits,
                       jint Mode) = 0;

  /// Allocates a native scratch buffer of \p Bytes (used for the UTF-8
  /// conversion buffers of GetStringUTFChars). The runtime fills it via
  /// the address part of the returned bits before native code sees it.
  virtual uint64_t acquireScratch(uint64_t Bytes, const char *Interface) = 0;

  /// Releases a scratch buffer.
  virtual void releaseScratch(uint64_t NativeBits, uint64_t Bytes,
                              const char *Interface) = 0;

  /// True when this policy hands out direct (non-copy) object payloads.
  virtual bool exposesDirectPointers() const = 0;
};

} // namespace mte4jni::jni

#endif // MTE4JNI_JNI_CHECKPOLICY_H
