//===- JniEnv.cpp - The simulated JNI environment -----------------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/jni/JniEnv.h"

#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/mte/ThreadState.h"
#include "mte4jni/support/Logging.h"
#include "mte4jni/support/Metrics.h"
#include "mte4jni/support/StringUtils.h"
#include "mte4jni/support/TraceRing.h"

#include <cstring>

namespace mte4jni::jni {

namespace {

/// The per-interface traffic Table 1 of the paper prices out: how many
/// Get/Release pairs and critical sections ran, the most Gets any env ever
/// held outstanding at once, and how many CheckJNI errors were raised.
struct JniMetrics {
  support::Counter &GetCalls = support::Metrics::counter("jni/get_calls");
  support::Counter &ReleaseCalls =
      support::Metrics::counter("jni/release_calls");
  support::Counter &CriticalEnters =
      support::Metrics::counter("jni/critical_enters");
  support::Counter &CheckErrors =
      support::Metrics::counter("jni/check_errors");
  support::Gauge &PinDepthHwm =
      support::Metrics::gauge("jni/pin_depth_hwm");
};

JniMetrics &jniMetrics() {
  static JniMetrics M;
  return M;
}

} // namespace

JniEnv::~JniEnv() {
  // CheckJNI-style leak detection: native code that never released its
  // GetStringUTFChars buffers.
  if (!UtfBuffers.empty())
    support::logWarn("CheckJNI",
                     "JNIEnv destroyed with %zu unreleased "
                     "GetStringUTFChars buffer(s) (native leak)",
                     UtfBuffers.size());
  if (!LocalFrames.empty())
    support::logWarn("CheckJNI",
                     "JNIEnv destroyed with %zu unpopped local frame(s)",
                     LocalFrames.size());
}

bool JniEnv::checkArray(jarray Array, rt::PrimType Expected,
                        const char *Interface) {
  if (!Array) {
    raiseError(Interface, "NullPointerException: null array");
    return false;
  }
  if (Array->kind() != rt::ObjectKind::PrimArray ||
      Array->elemType() != Expected) {
    raiseError(Interface,
               support::format("expected %s[] but got object kind %u/%s",
                               rt::primTypeName(Expected),
                               unsigned(Array->kind()),
                               rt::primTypeName(Array->elemType())));
    return false;
  }
  return true;
}

bool JniEnv::checkString(jstring Str, const char *Interface) {
  if (!Str) {
    raiseError(Interface, "NullPointerException: null string");
    return false;
  }
  if (Str->kind() != rt::ObjectKind::String) {
    raiseError(Interface, "expected a java.lang.String");
    return false;
  }
  return true;
}

void JniEnv::raiseError(const char *Interface, std::string Message) {
  PendingError = true;
  ErrorMessage = support::format("%s: %s", Interface, Message.c_str());

  jniMetrics().CheckErrors.add();
  mte::FaultRecord Record;
  Record.Kind = mte::FaultKind::JniCheckError;
  Record.Description = ErrorMessage;
  Record.ThreadId = mte::ThreadState::current().threadId();
  Record.Backtrace = support::FrameStack::current().capture();
  mte::MteSystem::instance().faultLog().append(std::move(Record));
}

uint64_t JniEnv::acquireObject(rt::ObjectHeader *Obj, const char *Interface,
                               jboolean *IsCopy) {
  static support::Histogram &AcquireNanos =
      support::Metrics::histogram("jni/acquire_nanos");
  support::SampledLatency Lat(AcquireNanos, support::FlightKind::JniAcquire);
  // Pin + tag/copy work must not interleave with a GC pause (the verify
  // pass reads payloads; compaction moves unpinned objects). Nested inside
  // callNative's bracket this is thread-local; standalone it claims one.
  rt::ScopedCritical Bracket(RT);
  // JNI Get* interfaces pin the object: the GC must not reclaim or move
  // memory native code holds a raw pointer into.
  Obj->pin();
  JniBufferInfo Info;
  Info.Obj = Obj;
  Info.DataBegin = Obj->dataAddress();
  Info.Bytes = Obj->dataBytes();
  Info.Interface = Interface;
  bool Copy = false;
  uint64_t Bits = Policy.acquire(Info, Copy);
  JniMetrics &JM = jniMetrics();
  JM.GetCalls.add();
  JM.PinDepthHwm.updateMax(static_cast<int64_t>(++PinDepth));
  if (IsCopy)
    *IsCopy = Copy ? JNI_TRUE : JNI_FALSE;
  return Bits;
}

void JniEnv::releaseObject(rt::ObjectHeader *Obj, const char *Interface,
                           uint64_t Bits, jint Mode) {
  static support::Histogram &ReleaseNanos =
      support::Metrics::histogram("jni/release_nanos");
  support::SampledLatency Lat(ReleaseNanos, support::FlightKind::JniRelease);
  // Copy-back (guarded copy) and unpin must be atomic w.r.t. the pause for
  // the same reason acquire is.
  rt::ScopedCritical Bracket(RT);
  jniMetrics().ReleaseCalls.add();
  JniBufferInfo Info;
  Info.Obj = Obj;
  Info.DataBegin = Obj->dataAddress();
  Info.Bytes = Obj->dataBytes();
  Info.Interface = Interface;
  Policy.release(Info, Bits, Mode);
  // JNI_COMMIT keeps the buffer pinned: the caller will release again.
  if (Mode != JNI_COMMIT) {
    if (PinDepth > 0)
      --PinDepth;
    Obj->unpin();
  }
}

// ==== critical interfaces ================================================

bool JniEnv::closeCriticalRegion(const char *Interface) {
  // CheckJNI: releasing a critical you never entered is a native bug. Left
  // through, it would unpin a buffer this env never pinned (or steal
  // another thread's pin) and drop a runtime claim it does not own.
  if (CriticalRegions == 0) {
    raiseError(Interface, "no JNI critical region is open on this env");
    return false;
  }
  --CriticalRegions;
  return true;
}

mte::TaggedPtr<void> JniEnv::GetPrimitiveArrayCritical(jarray Array,
                                                       jboolean *IsCopy) {
  support::ScopedFrame Frame("GetPrimitiveArrayCritical", "libart.so");
  if (!Array) {
    raiseError("GetPrimitiveArrayCritical", "NullPointerException");
    return mte::TaggedPtr<void>();
  }
  if (Array->kind() != rt::ObjectKind::PrimArray) {
    raiseError("GetPrimitiveArrayCritical", "not a primitive array");
    return mte::TaggedPtr<void>();
  }
  RT.enterCritical();
  ++CriticalRegions;
  jniMetrics().CriticalEnters.add();
  return mte::TaggedPtr<void>::fromBits(
      acquireObject(Array, "GetPrimitiveArrayCritical", IsCopy));
}

void JniEnv::ReleasePrimitiveArrayCritical(jarray Array,
                                           mte::TaggedPtr<void> Carray,
                                           jint Mode) {
  support::ScopedFrame Frame("ReleasePrimitiveArrayCritical", "libart.so");
  if (!Array || Array->kind() != rt::ObjectKind::PrimArray) {
    raiseError("ReleasePrimitiveArrayCritical", "bad array argument");
    return;
  }
  if (!closeCriticalRegion("ReleasePrimitiveArrayCritical"))
    return;
  releaseObject(Array, "ReleasePrimitiveArrayCritical", Carray.bits(), Mode);
  RT.exitCritical();
}

mte::TaggedPtr<const jchar> JniEnv::GetStringCritical(jstring Str,
                                                      jboolean *IsCopy) {
  support::ScopedFrame Frame("GetStringCritical", "libart.so");
  if (!checkString(Str, "GetStringCritical"))
    return mte::TaggedPtr<const jchar>();
  RT.enterCritical();
  ++CriticalRegions;
  jniMetrics().CriticalEnters.add();
  return mte::TaggedPtr<const jchar>::fromBits(
      acquireObject(Str, "GetStringCritical", IsCopy));
}

void JniEnv::ReleaseStringCritical(jstring Str,
                                   mte::TaggedPtr<const jchar> Chars) {
  support::ScopedFrame Frame("ReleaseStringCritical", "libart.so");
  if (!checkString(Str, "ReleaseStringCritical") ||
      !closeCriticalRegion("ReleaseStringCritical"))
    return;
  releaseObject(Str, "ReleaseStringCritical", Chars.bits(), 0);
  RT.exitCritical();
}

PinnedStringChars::PinnedStringChars(JniEnv &Env, jstring Str)
    : Env(Env), Str(Str), Chars(Env.GetStringCritical(Str, nullptr)) {
  if (Chars.isNull())
    return;
  Length = static_cast<jsize>(Str->Length);
  if (mte::rangeTagsMatch(Chars.cast<const void>(),
                          uint64_t(Str->Length) * sizeof(jchar)))
    UncheckedLength = Str->Length;
}

PinnedStringChars::~PinnedStringChars() {
  if (!Chars.isNull())
    Env.ReleaseStringCritical(Str, Chars);
}

jchar PinnedStringChars::checkedAt(jsize I) const {
  return mte::load<const jchar>(Chars + I);
}

// ==== string interfaces ==================================================

mte::TaggedPtr<const jchar> JniEnv::GetStringChars(jstring Str,
                                                   jboolean *IsCopy) {
  support::ScopedFrame Frame("GetStringChars", "libart.so");
  if (!checkString(Str, "GetStringChars"))
    return mte::TaggedPtr<const jchar>();
  return mte::TaggedPtr<const jchar>::fromBits(
      acquireObject(Str, "GetStringChars", IsCopy));
}

void JniEnv::ReleaseStringChars(jstring Str,
                                mte::TaggedPtr<const jchar> Chars) {
  support::ScopedFrame Frame("ReleaseStringChars", "libart.so");
  if (!checkString(Str, "ReleaseStringChars"))
    return;
  releaseObject(Str, "ReleaseStringChars", Chars.bits(), 0);
}

mte::TaggedPtr<const char> JniEnv::GetStringUTFChars(jstring Str,
                                                     jboolean *IsCopy) {
  support::ScopedFrame Frame("GetStringUTFChars", "libart.so");
  if (!checkString(Str, "GetStringUTFChars"))
    return mte::TaggedPtr<const char>();

  // The UTF-8 conversion reads the string payload: bracket it against the
  // GC pause like every other payload access.
  rt::ScopedCritical Bracket(RT);
  // GetStringUTFChars always converts into a fresh native buffer.
  std::u16string_view Units(
      reinterpret_cast<const char16_t *>(rt::stringChars(Str)), Str->Length);
  std::string Utf8 = rt::utf16ToUtf8(Units);
  uint64_t Bytes = Utf8.size() + 1; // NUL-terminated per JNI spec

  uint64_t Bits = Policy.acquireScratch(Bytes, "GetStringUTFChars");
  char *Host = reinterpret_cast<char *>(mte::addressOf(Bits));
  if (!Host) {
    raiseError("GetStringUTFChars", "OutOfMemoryError");
    return mte::TaggedPtr<const char>();
  }
  std::memcpy(Host, Utf8.data(), Utf8.size());
  Host[Utf8.size()] = '\0';

  UtfBuffers[Bits] = Bytes;
  if (IsCopy)
    *IsCopy = JNI_TRUE;
  return mte::TaggedPtr<const char>::fromBits(Bits);
}

void JniEnv::ReleaseStringUTFChars(jstring Str,
                                   mte::TaggedPtr<const char> Utf) {
  support::ScopedFrame Frame("ReleaseStringUTFChars", "libart.so");
  (void)Str; // real JNI ignores the string argument for the copy's release
  auto It = UtfBuffers.find(Utf.bits());
  if (It == UtfBuffers.end()) {
    raiseError("ReleaseStringUTFChars",
               "pointer was not returned by GetStringUTFChars");
    return;
  }
  uint64_t Bytes = It->second;
  UtfBuffers.erase(It);
  Policy.releaseScratch(Utf.bits(), Bytes, "ReleaseStringUTFChars");
}

// ==== Object[] ============================================================

jarray JniEnv::NewObjectArray(rt::HandleScope &Scope, jsize Length) {
  support::ScopedFrame Frame("NewObjectArray", "libart.so");
  if (Length < 0) {
    raiseError("NewObjectArray", "NegativeArraySizeException");
    return nullptr;
  }
  jarray Array = RT.newRefArray(Scope, static_cast<uint32_t>(Length));
  if (!Array)
    raiseError("NewObjectArray", "OutOfMemoryError");
  return Array;
}

jobject JniEnv::GetObjectArrayElement(jarray Array, jsize Index) {
  support::ScopedFrame Frame("GetObjectArrayElement", "libart.so");
  if (!Array || Array->kind() != rt::ObjectKind::RefArray) {
    raiseError("GetObjectArrayElement", "not an object array");
    return nullptr;
  }
  if (Index < 0 || static_cast<uint32_t>(Index) >= Array->Length) {
    raiseError("GetObjectArrayElement", "ArrayIndexOutOfBoundsException");
    return nullptr;
  }
  // Ref-array slots are payload the mark phase traces and compaction
  // rewrites: slot access must not interleave with a pause.
  rt::ScopedCritical Bracket(RT);
  return rt::refArraySlots(Array)[Index];
}

void JniEnv::SetObjectArrayElement(jarray Array, jsize Index,
                                   jobject Value) {
  support::ScopedFrame Frame("SetObjectArrayElement", "libart.so");
  if (!Array || Array->kind() != rt::ObjectKind::RefArray) {
    raiseError("SetObjectArrayElement", "not an object array");
    return;
  }
  if (Index < 0 || static_cast<uint32_t>(Index) >= Array->Length) {
    raiseError("SetObjectArrayElement", "ArrayIndexOutOfBoundsException");
    return;
  }
  rt::ScopedCritical Bracket(RT);
  rt::refArraySlots(Array)[Index] = Value;
}

// ==== local reference frames ==============================================

jint JniEnv::PushLocalFrame(jint Capacity) {
  support::ScopedFrame Frame("PushLocalFrame", "libart.so");
  if (Capacity < 0) {
    raiseError("PushLocalFrame", "negative capacity");
    return -1;
  }
  LocalFrames.push_back(std::make_unique<rt::HandleScope>(RT));
  return 0;
}

jobject JniEnv::PopLocalFrame(jobject Result) {
  support::ScopedFrame Frame("PopLocalFrame", "libart.so");
  if (LocalFrames.empty()) {
    raiseError("PopLocalFrame", "no local frame to pop");
    return Result;
  }
  // Real JNI promotes Result into the outer frame; this runtime's
  // references are direct pointers, so survival requires the caller to
  // root Result elsewhere — emulate the promotion when possible.
  LocalFrames.pop_back();
  if (Result && !LocalFrames.empty())
    LocalFrames.back()->root(Result);
  return Result;
}

jarray JniEnv::NewIntArrayLocal(jsize Length) {
  if (LocalFrames.empty()) {
    raiseError("NewIntArray", "no local frame open");
    return nullptr;
  }
  return newArray<jint>(*LocalFrames.back(), Length, "NewIntArray");
}

jstring JniEnv::NewStringUTFLocal(const char *Utf8) {
  if (LocalFrames.empty()) {
    raiseError("NewStringUTF", "no local frame open");
    return nullptr;
  }
  return NewStringUTF(*LocalFrames.back(), Utf8);
}

// ==== queries and creation ===============================================

jsize JniEnv::GetArrayLength(jarray Array) {
  if (!Array || Array->kind() != rt::ObjectKind::PrimArray) {
    raiseError("GetArrayLength", "bad array argument");
    return -1;
  }
  return static_cast<jsize>(Array->Length);
}

jsize JniEnv::GetStringLength(jstring Str) {
  if (!checkString(Str, "GetStringLength"))
    return -1;
  return static_cast<jsize>(Str->Length);
}

jsize JniEnv::GetStringUTFLength(jstring Str) {
  if (!checkString(Str, "GetStringUTFLength"))
    return -1;
  return static_cast<jsize>(rt::utf8Length(Str));
}

jstring JniEnv::NewString(rt::HandleScope &Scope, const jchar *Units,
                          jsize Len) {
  if (Len < 0) {
    raiseError("NewString", "negative length");
    return nullptr;
  }
  jstring Str = RT.newString(
      Scope, std::u16string_view(reinterpret_cast<const char16_t *>(Units),
                                 static_cast<size_t>(Len)));
  if (!Str)
    raiseError("NewString", "OutOfMemoryError");
  return Str;
}

jstring JniEnv::NewStringUTF(rt::HandleScope &Scope, const char *Utf8) {
  if (!Utf8) {
    raiseError("NewStringUTF", "NullPointerException");
    return nullptr;
  }
  jstring Str = RT.newStringUtf8(Scope, Utf8);
  if (!Str)
    raiseError("NewStringUTF", "OutOfMemoryError");
  return Str;
}

} // namespace mte4jni::jni
