//===- JniEnv.h - The simulated JNI environment ----------------------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A JNIEnv-like façade exposing every interface from the paper's Table 1
/// (the ones that hand raw Java-heap pointers to native code) plus the
/// creation/query helpers needed to drive them:
///
///   GetStringCritical            / ReleaseStringCritical
///   GetPrimitiveArrayCritical    / ReleasePrimitiveArrayCritical
///   GetStringChars               / ReleaseStringChars
///   GetStringUTFChars            / ReleaseStringUTFChars
///   Get<Prim>ArrayElements       / Release<Prim>ArrayElements
///   Get<Prim>ArrayRegion         / Set<Prim>ArrayRegion
///
/// Pointer-returning interfaces funnel through the installed CheckPolicy —
/// the protection-scheme seam. Returned pointers are mte::TaggedPtr values:
/// under MTE4JNI their bits 56..59 carry the allocation tag (on hardware
/// this is invisible thanks to top-byte-ignore; on the host simulator the
/// tag must be stripped by the checked-access API, which is also where the
/// tag check happens).
///
/// Deviations from real JNI, for the simulator:
///   * creation methods take a HandleScope (this runtime's local-reference
///     table);
///   * one JniEnv should be used per thread, like a real JNIEnv.
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_JNI_JNIENV_H
#define MTE4JNI_JNI_JNIENV_H

#include "mte4jni/jni/CheckPolicy.h"
#include "mte4jni/mte/Access.h"
#include "mte4jni/mte/TaggedPtr.h"
#include "mte4jni/rt/Handle.h"
#include "mte4jni/rt/JavaString.h"
#include "mte4jni/rt/Runtime.h"
#include "mte4jni/support/Backtrace.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace mte4jni::jni {

class JniEnv {
public:
  /// \p Policy must outlive the env.
  JniEnv(rt::Runtime &RT, CheckPolicy &Policy) : RT(RT), Policy(Policy) {}
  ~JniEnv();

  rt::Runtime &runtime() { return RT; }
  CheckPolicy &policy() { return Policy; }

  // ==== generic cores (typed wrappers below) =============================

  template <typename T>
  mte::TaggedPtr<T> getArrayElements(jarray Array, jboolean *IsCopy,
                                     const char *Interface);
  template <typename T>
  void releaseArrayElements(jarray Array, mte::TaggedPtr<T> Elems, jint Mode,
                            const char *Interface);
  template <typename T>
  void getArrayRegion(jarray Array, jsize Start, jsize Len, T *Buf,
                      const char *Interface);
  template <typename T>
  void setArrayRegion(jarray Array, jsize Start, jsize Len, const T *Buf,
                      const char *Interface);
  template <typename T>
  jarray newArray(rt::HandleScope &Scope, jsize Length,
                  const char *Interface);

  // ==== Table 1: critical interfaces ===================================

  /// Blocks GC until released; returns the (policy-mediated) payload.
  mte::TaggedPtr<void> GetPrimitiveArrayCritical(jarray Array,
                                                 jboolean *IsCopy);
  void ReleasePrimitiveArrayCritical(jarray Array,
                                     mte::TaggedPtr<void> Carray, jint Mode);

  mte::TaggedPtr<const jchar> GetStringCritical(jstring Str,
                                                jboolean *IsCopy);
  void ReleaseStringCritical(jstring Str, mte::TaggedPtr<const jchar> Chars);

  // ==== Table 1: string interfaces =====================================

  mte::TaggedPtr<const jchar> GetStringChars(jstring Str, jboolean *IsCopy);
  void ReleaseStringChars(jstring Str, mte::TaggedPtr<const jchar> Chars);

  /// Always copies (UTF-8 conversion); the buffer is NUL-terminated.
  mte::TaggedPtr<const char> GetStringUTFChars(jstring Str,
                                               jboolean *IsCopy);
  void ReleaseStringUTFChars(jstring Str, mte::TaggedPtr<const char> Utf);

  // ==== Table 1: typed elements/regions, one set per primitive type ======

#define M4J_JNI_TYPED_METHODS(Name, T)                                        \
  mte::TaggedPtr<T> Get##Name##ArrayElements(jarray Array,                    \
                                             jboolean *IsCopy) {              \
    return getArrayElements<T>(Array, IsCopy,                                 \
                               "Get" #Name "ArrayElements");                  \
  }                                                                            \
  void Release##Name##ArrayElements(jarray Array, mte::TaggedPtr<T> Elems,    \
                                    jint Mode) {                              \
    releaseArrayElements<T>(Array, Elems, Mode,                               \
                            "Release" #Name "ArrayElements");                 \
  }                                                                            \
  void Get##Name##ArrayRegion(jarray Array, jsize Start, jsize Len,           \
                              T *Buf) {                                       \
    getArrayRegion<T>(Array, Start, Len, Buf, "Get" #Name "ArrayRegion");     \
  }                                                                            \
  void Set##Name##ArrayRegion(jarray Array, jsize Start, jsize Len,           \
                              const T *Buf) {                                 \
    setArrayRegion<T>(Array, Start, Len, Buf, "Set" #Name "ArrayRegion");     \
  }                                                                            \
  jarray New##Name##Array(rt::HandleScope &Scope, jsize Length) {             \
    return newArray<T>(Scope, Length, "New" #Name "Array");                   \
  }

  M4J_JNI_TYPED_METHODS(Boolean, jboolean)
  M4J_JNI_TYPED_METHODS(Byte, jbyte)
  M4J_JNI_TYPED_METHODS(Char, jchar)
  M4J_JNI_TYPED_METHODS(Short, jshort)
  M4J_JNI_TYPED_METHODS(Int, jint)
  M4J_JNI_TYPED_METHODS(Long, jlong)
  M4J_JNI_TYPED_METHODS(Float, jfloat)
  M4J_JNI_TYPED_METHODS(Double, jdouble)

#undef M4J_JNI_TYPED_METHODS

  // ==== queries and creation ==============================================

  jsize GetArrayLength(jarray Array);
  jsize GetStringLength(jstring Str);
  jsize GetStringUTFLength(jstring Str);

  jstring NewString(rt::HandleScope &Scope, const jchar *Units, jsize Len);
  jstring NewStringUTF(rt::HandleScope &Scope, const char *Utf8);

  /// Object[] support. These interfaces are bounds-checked and never hand
  /// out raw pointers (which is why the paper's Table 1 does not list
  /// them): no policy involvement.
  jarray NewObjectArray(rt::HandleScope &Scope, jsize Length);
  jobject GetObjectArrayElement(jarray Array, jsize Index);
  void SetObjectArrayElement(jarray Array, jsize Index, jobject Value);

  // ==== local reference frames ============================================

  /// PushLocalFrame: opens a new local-reference scope; objects created
  /// through the frame-less creation overloads below are rooted in the
  /// innermost frame, exactly like JNI local references.
  jint PushLocalFrame(jint Capacity);

  /// PopLocalFrame: drops the innermost frame (its references die).
  /// Returns \p Result for call-through convenience, like real JNI.
  jobject PopLocalFrame(jobject Result);

  /// Depth of the local-frame stack.
  size_t localFrameDepth() const { return LocalFrames.size(); }

  /// Frame-less creation overloads: root in the innermost local frame
  /// (error if none is open).
  jarray NewIntArrayLocal(jsize Length);
  jstring NewStringUTFLocal(const char *Utf8);

  // ==== pending-exception emulation ========================================

  bool ExceptionCheck() const { return PendingError; }
  void ExceptionClear() {
    PendingError = false;
    ErrorMessage.clear();
  }
  const std::string &exceptionMessage() const { return ErrorMessage; }

private:
  /// Validates an array argument; raises a JNI check error when bad.
  bool checkArray(jarray Array, rt::PrimType Expected, const char *Interface);
  bool checkString(jstring Str, const char *Interface);

  /// Records a CheckJNI-style error: pending exception + fault-log entry.
  void raiseError(const char *Interface, std::string Message);

  uint64_t acquireObject(rt::ObjectHeader *Obj, const char *Interface,
                         jboolean *IsCopy);
  void releaseObject(rt::ObjectHeader *Obj, const char *Interface,
                     uint64_t Bits, jint Mode);

  /// Closes one of this env's critical regions for a Release*Critical;
  /// raises a JNI check error and returns false when none is open.
  bool closeCriticalRegion(const char *Interface);

  rt::Runtime &RT;
  CheckPolicy &Policy;

  bool PendingError = false;
  std::string ErrorMessage;

  /// Outstanding Get* pins of this env: one per Get, minus one per
  /// non-JNI_COMMIT Release (never below zero; a Release may arrive
  /// through another thread's env). Nested Gets of one buffer count once
  /// each. A JniEnv is single-threaded (one per attached thread, like real
  /// JNI), so no lock is needed.
  uint32_t PinDepth = 0;

  /// Open Get*Critical regions of this env. Counted here, not read off the
  /// runtime's critical depth: inside rt::callNative that depth is never 0,
  /// so only this count can tell a stray Release*Critical from a matched
  /// one.
  uint32_t CriticalRegions = 0;

  /// Outstanding GetStringUTFChars buffers: bits -> byte size.
  std::unordered_map<uint64_t, uint64_t> UtfBuffers;

  /// JNI local-reference frames (PushLocalFrame/PopLocalFrame).
  std::vector<std::unique_ptr<rt::HandleScope>> LocalFrames;
};

/// A string critical held for one C++ scope and read one jchar at a time.
/// The constructor runs GetStringCritical and the destructor
/// ReleaseStringCritical, so the view cannot outlive its pin. While the pin
/// is held the string's tags cannot change (DESIGN.md §7), so the
/// constructor checks the whole [data(), data() + length()) range once with
/// mte::rangeTagsMatch, and when it matched, at(I) reads in-range chars
/// without a check. Every other read (an index outside [0, length()), or
/// any index of a view whose scan did not match) is an mte::load, so values
/// and faults are exactly those of per-access checked loads. The thread's
/// check state is taken at construction; a native body does not change it.
class PinnedStringChars {
public:
  PinnedStringChars(JniEnv &Env, jstring Str);
  ~PinnedStringChars();

  PinnedStringChars(const PinnedStringChars &) = delete;
  PinnedStringChars &operator=(const PinnedStringChars &) = delete;

  /// The pinned chars; null when GetStringCritical raised an error.
  mte::TaggedPtr<const jchar> data() const { return Chars; }
  jsize length() const { return Length; }
  /// True when in-range reads skip their check.
  bool scanMatched() const { return UncheckedLength != 0; }

  /// Only the in-range read is inline: inlining the checked fallback too
  /// made a caller's per-char lambda too big for GCC to inline.
  M4J_ALWAYS_INLINE jchar at(jsize I) const {
    if (M4J_LIKELY(static_cast<uint32_t>(I) < UncheckedLength))
      return Chars.raw()[I];
    return checkedAt(I);
  }

private:
  /// mte::load of char \p I: every read the scan does not cover.
  M4J_NOINLINE jchar checkedAt(jsize I) const;

  JniEnv &Env;
  jstring Str;
  mte::TaggedPtr<const jchar> Chars;
  jsize Length = 0;
  /// length() when the constructor's scan matched, else 0.
  uint32_t UncheckedLength = 0;
};

// ==== template implementations =============================================

template <typename T>
mte::TaggedPtr<T> JniEnv::getArrayElements(jarray Array, jboolean *IsCopy,
                                           const char *Interface) {
  support::ScopedFrame Frame(Interface, "libart.so");
  if (!checkArray(Array, primTypeFor<T>(), Interface))
    return mte::TaggedPtr<T>();
  return mte::TaggedPtr<T>::fromBits(
      acquireObject(Array, Interface, IsCopy));
}

template <typename T>
void JniEnv::releaseArrayElements(jarray Array, mte::TaggedPtr<T> Elems,
                                  jint Mode, const char *Interface) {
  support::ScopedFrame Frame(Interface, "libart.so");
  if (!checkArray(Array, primTypeFor<T>(), Interface))
    return;
  releaseObject(Array, Interface, Elems.bits(), Mode);
}

template <typename T>
void JniEnv::getArrayRegion(jarray Array, jsize Start, jsize Len, T *Buf,
                            const char *Interface) {
  support::ScopedFrame Frame(Interface, "libart.so");
  if (!checkArray(Array, primTypeFor<T>(), Interface))
    return;
  if (Start < 0 || Len < 0 ||
      static_cast<uint64_t>(Start) + static_cast<uint64_t>(Len) >
          Array->Length) {
    raiseError(Interface, "ArrayIndexOutOfBoundsException");
    return;
  }
  // Runtime-side copy: bounds already validated, performed with the
  // runtime's own (untagged, unchecked) view of the heap. The bracket
  // keeps the copy mutually exclusive with the GC pause (compaction may
  // move the array; the verify pass reads it).
  rt::ScopedCritical Bracket(RT);
  const T *Data = rt::arrayData<T>(Array);
  for (jsize I = 0; I < Len; ++I)
    Buf[I] = Data[Start + I];
}

template <typename T>
void JniEnv::setArrayRegion(jarray Array, jsize Start, jsize Len,
                            const T *Buf, const char *Interface) {
  support::ScopedFrame Frame(Interface, "libart.so");
  if (!checkArray(Array, primTypeFor<T>(), Interface))
    return;
  if (Start < 0 || Len < 0 ||
      static_cast<uint64_t>(Start) + static_cast<uint64_t>(Len) >
          Array->Length) {
    raiseError(Interface, "ArrayIndexOutOfBoundsException");
    return;
  }
  // Payload WRITES are exactly what the stop-the-world verify pass races
  // with when the world does not stop: bracket them.
  rt::ScopedCritical Bracket(RT);
  T *Data = rt::arrayData<T>(Array);
  for (jsize I = 0; I < Len; ++I)
    Data[Start + I] = Buf[I];
}

template <typename T>
jarray JniEnv::newArray(rt::HandleScope &Scope, jsize Length,
                        const char *Interface) {
  support::ScopedFrame Frame(Interface, "libart.so");
  if (Length < 0) {
    raiseError(Interface, "NegativeArraySizeException");
    return nullptr;
  }
  jarray Array = RT.newPrimArray(Scope, primTypeFor<T>(),
                                 static_cast<uint32_t>(Length));
  if (!Array)
    raiseError(Interface, "OutOfMemoryError");
  return Array;
}

} // namespace mte4jni::jni

#endif // MTE4JNI_JNI_JNIENV_H
