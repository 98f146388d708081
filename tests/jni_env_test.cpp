//===- jni_env_test.cpp - The JNI environment surface ---------------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/api/Session.h"
#include "mte4jni/mte/Access.h"
#include "mte4jni/rt/JavaString.h"
#include "mte4jni/rt/Trampoline.h"

#include <gtest/gtest.h>

namespace {

using namespace mte4jni;
using namespace mte4jni::jni;

class JniEnvTest : public ::testing::Test {
protected:
  void SetUp() override {
    api::SessionConfig C;
    C.Protection = api::Scheme::NoProtection;
    C.HeapBytes = 8 << 20;
    S = std::make_unique<api::Session>(C);
    Main = std::make_unique<api::ScopedAttach>(*S, "main");
    Scope = std::make_unique<rt::HandleScope>(S->runtime());
  }
  void TearDown() override {
    Scope.reset();
    Main.reset();
    S.reset();
  }

  JniEnv &env() { return Main->env(); }

  std::unique_ptr<api::Session> S;
  std::unique_ptr<api::ScopedAttach> Main;
  std::unique_ptr<rt::HandleScope> Scope;
};

TEST_F(JniEnvTest, NewArrayAndLength) {
  jintArray A = env().NewIntArray(*Scope, 37);
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(env().GetArrayLength(A), 37);
  EXPECT_FALSE(env().ExceptionCheck());
}

TEST_F(JniEnvTest, NewArrayNegativeLength) {
  jintArray A = env().NewIntArray(*Scope, -1);
  EXPECT_EQ(A, nullptr);
  EXPECT_TRUE(env().ExceptionCheck());
  EXPECT_NE(env().exceptionMessage().find("NegativeArraySize"),
            std::string::npos);
  env().ExceptionClear();
  EXPECT_FALSE(env().ExceptionCheck());
}

TEST_F(JniEnvTest, AllPrimitiveTypesRoundTrip) {
  // One Get/Set/Region/Elements pass per primitive type.
#define CHECK_TYPE(Name, T, V1, V2)                                           \
  {                                                                            \
    jarray A = env().New##Name##Array(*Scope, 8);                              \
    T Src[8];                                                                  \
    for (int I = 0; I < 8; ++I)                                                \
      Src[I] = static_cast<T>(I % 2 ? V1 : V2);                                \
    env().Set##Name##ArrayRegion(A, 0, 8, Src);                                \
    T Dst[8] = {};                                                             \
    env().Get##Name##ArrayRegion(A, 0, 8, Dst);                                \
    for (int I = 0; I < 8; ++I)                                                \
      EXPECT_EQ(Dst[I], Src[I]);                                               \
    jboolean IsCopy;                                                           \
    auto E = env().Get##Name##ArrayElements(A, &IsCopy);                       \
    EXPECT_EQ(mte::load(E), Src[0]);                                           \
    env().Release##Name##ArrayElements(A, E, 0);                               \
    EXPECT_FALSE(env().ExceptionCheck());                                      \
  }

  CHECK_TYPE(Boolean, jboolean, 1, 0)
  CHECK_TYPE(Byte, jbyte, -7, 9)
  CHECK_TYPE(Char, jchar, 0x1234, 0x00FF)
  CHECK_TYPE(Short, jshort, -1000, 2000)
  CHECK_TYPE(Int, jint, -123456, 654321)
  CHECK_TYPE(Long, jlong, -5000000000LL, 7000000000LL)
  CHECK_TYPE(Float, jfloat, 1.5f, -2.25f)
  CHECK_TYPE(Double, jdouble, 3.5, -4.75)
#undef CHECK_TYPE
}

TEST_F(JniEnvTest, RegionBoundsChecked) {
  jintArray A = env().NewIntArray(*Scope, 10);
  jint Buf[10] = {};

  env().GetIntArrayRegion(A, 0, 10, Buf);
  EXPECT_FALSE(env().ExceptionCheck());

  env().GetIntArrayRegion(A, 5, 6, Buf); // start+len > length
  EXPECT_TRUE(env().ExceptionCheck());
  EXPECT_NE(env().exceptionMessage().find("ArrayIndexOutOfBounds"),
            std::string::npos);
  env().ExceptionClear();

  env().SetIntArrayRegion(A, -1, 2, Buf); // negative start
  EXPECT_TRUE(env().ExceptionCheck());
  env().ExceptionClear();

  env().GetIntArrayRegion(A, 0, -3, Buf); // negative length
  EXPECT_TRUE(env().ExceptionCheck());
  env().ExceptionClear();

  // Bounds errors land in the fault log as JNI check errors.
  EXPECT_EQ(S->faults().countOf(mte::FaultKind::JniCheckError), 3u);
}

TEST_F(JniEnvTest, TypeMismatchRejected) {
  jintArray A = env().NewIntArray(*Scope, 4);
  jboolean IsCopy;
  auto E = env().GetLongArrayElements(A, &IsCopy); // wrong element type
  EXPECT_TRUE(E.isNull());
  EXPECT_TRUE(env().ExceptionCheck());
  env().ExceptionClear();
}

TEST_F(JniEnvTest, NullArrayRejected) {
  jboolean IsCopy;
  auto E = env().GetIntArrayElements(nullptr, &IsCopy);
  EXPECT_TRUE(E.isNull());
  EXPECT_TRUE(env().ExceptionCheck());
  EXPECT_NE(env().exceptionMessage().find("NullPointerException"),
            std::string::npos);
  env().ExceptionClear();

  EXPECT_EQ(env().GetArrayLength(nullptr), -1);
  env().ExceptionClear();
}

TEST_F(JniEnvTest, GetElementsPinsObject) {
  jintArray A = env().NewIntArray(*Scope, 4);
  EXPECT_EQ(A->pinCount(), 0u);
  jboolean IsCopy;
  auto E = env().GetIntArrayElements(A, &IsCopy);
  EXPECT_EQ(A->pinCount(), 1u);
  auto E2 = env().GetIntArrayElements(A, &IsCopy);
  EXPECT_EQ(A->pinCount(), 2u);
  env().ReleaseIntArrayElements(A, E2, 0);
  env().ReleaseIntArrayElements(A, E, 0);
  EXPECT_EQ(A->pinCount(), 0u);
}

TEST_F(JniEnvTest, JniCommitKeepsPinAndBuffer) {
  jintArray A = env().NewIntArray(*Scope, 4);
  jboolean IsCopy;
  auto E = env().GetIntArrayElements(A, &IsCopy);
  mte::store<jint>(E, 77);
  env().ReleaseIntArrayElements(A, E, JNI_COMMIT);
  EXPECT_EQ(A->pinCount(), 1u) << "JNI_COMMIT keeps the buffer live";
  EXPECT_EQ(rt::arrayData<jint>(A)[0], 77);
  mte::store<jint>(E, 88);
  env().ReleaseIntArrayElements(A, E, 0);
  EXPECT_EQ(A->pinCount(), 0u);
  EXPECT_EQ(rt::arrayData<jint>(A)[0], 88);
}

TEST_F(JniEnvTest, CriticalTracksRuntimeDepth) {
  jintArray A = env().NewIntArray(*Scope, 4);
  jboolean IsCopy;
  EXPECT_EQ(S->runtime().criticalDepth(), 0u);
  auto P = env().GetPrimitiveArrayCritical(A, &IsCopy);
  EXPECT_EQ(S->runtime().criticalDepth(), 1u);
  env().ReleasePrimitiveArrayCritical(A, P, 0);
  EXPECT_EQ(S->runtime().criticalDepth(), 0u);
}

// A Release*Critical with no open Get*Critical on its env is a CheckJNI
// error that touches nothing. Inside a native call the runtime's critical
// depth is already 1 (the trampoline's bracket), so only the env's own
// count can tell a stray release from a matched one. Let through, the
// stray release would drop a pin the env does not hold and, with it, the
// trampoline's claim, leaving the rest of the body outside the bracket.
TEST(JniEnvCritical, StrayCriticalReleasesInsideNativeCallAreErrors) {
  api::SessionConfig C;
  C.Protection = api::Scheme::Mte4JniSync;
  C.HeapBytes = 8 << 20;
  api::Session S(C);
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());
  JniEnv &Env = Main.env();
  jintArray A = Env.NewIntArray(Scope, 16);
  jstring Str = Env.NewStringUTF(Scope, "stray");

  rt::callNative(Main.thread(), rt::NativeKind::Regular, "stray", [&] {
    jboolean IsCopy;
    // A pin of A taken through another interface: the stray critical
    // release must not steal it.
    auto Elems = Env.GetIntArrayElements(A, &IsCopy);
    ASSERT_EQ(A->pinCount(), 1u);

    Env.ReleasePrimitiveArrayCritical(A, Elems.cast<void>(), 0);
    EXPECT_TRUE(Env.ExceptionCheck());
    EXPECT_NE(Env.exceptionMessage().find("critical"), std::string::npos);
    Env.ExceptionClear();
    EXPECT_EQ(A->pinCount(), 1u) << "the stray release took a pin";
    EXPECT_EQ(S.runtime().criticalDepth(), 1u)
        << "the stray release dropped the trampoline's claim";

    Env.ReleaseStringCritical(
        Str, mte::TaggedPtr<const jchar>::fromRaw(rt::stringChars(Str)));
    EXPECT_TRUE(Env.ExceptionCheck());
    EXPECT_NE(Env.exceptionMessage().find("critical"), std::string::npos);
    Env.ExceptionClear();
    EXPECT_EQ(Str->pinCount(), 0u);
    EXPECT_EQ(S.runtime().criticalDepth(), 1u);

    Env.ReleaseIntArrayElements(A, Elems, 0);
    EXPECT_EQ(A->pinCount(), 0u);
  });
  EXPECT_EQ(S.runtime().criticalDepth(), 0u);

  // The next native call works: a matched critical nests and unwinds.
  rt::callNative(Main.thread(), rt::NativeKind::Regular, "after", [&] {
    jboolean IsCopy;
    auto P = Env.GetPrimitiveArrayCritical(A, &IsCopy).cast<jint>();
    EXPECT_EQ(S.runtime().criticalDepth(), 2u);
    mte::store<jint>(P + 3, 33);
    Env.ReleasePrimitiveArrayCritical(A, P.cast<void>(), 0);
    EXPECT_FALSE(Env.ExceptionCheck());
    EXPECT_EQ(S.runtime().criticalDepth(), 1u);
  });
  EXPECT_EQ(rt::arrayData<jint>(A)[3], 33);
  EXPECT_EQ(A->pinCount(), 0u);
}

TEST_F(JniEnvTest, StringCreationAndQueries) {
  jstring Str = env().NewStringUTF(*Scope, "hello");
  ASSERT_NE(Str, nullptr);
  EXPECT_EQ(env().GetStringLength(Str), 5);
  EXPECT_EQ(env().GetStringUTFLength(Str), 5);

  jchar Units[] = {'a', 0x20AC}; // "a€"
  jstring Str2 = env().NewString(*Scope, Units, 2);
  EXPECT_EQ(env().GetStringLength(Str2), 2);
  EXPECT_EQ(env().GetStringUTFLength(Str2), 4); // 1 + 3 bytes
}

TEST_F(JniEnvTest, GetStringCharsDirect) {
  jstring Str = env().NewStringUTF(*Scope, "abc");
  jboolean IsCopy;
  auto Chars = env().GetStringChars(Str, &IsCopy);
  EXPECT_EQ(IsCopy, JNI_FALSE); // no-protection: direct
  EXPECT_EQ(mte::load(Chars), 'a');
  EXPECT_EQ(mte::load(Chars + 2), 'c');
  env().ReleaseStringChars(Str, Chars);
}

TEST_F(JniEnvTest, GetStringUTFCharsIsNulTerminatedCopy) {
  jstring Str = env().NewStringUTF(*Scope, "xyz");
  jboolean IsCopy;
  auto Utf = env().GetStringUTFChars(Str, &IsCopy);
  EXPECT_EQ(IsCopy, JNI_TRUE);
  EXPECT_EQ(mte::load(Utf), 'x');
  EXPECT_EQ(mte::load(Utf + 3), '\0');
  env().ReleaseStringUTFChars(Str, Utf);
}

TEST_F(JniEnvTest, ReleaseUTFCharsWithBogusPointer) {
  jstring Str = env().NewStringUTF(*Scope, "xyz");
  char Bogus[4];
  env().ReleaseStringUTFChars(
      Str, mte::TaggedPtr<const char>::fromRaw(Bogus, 0));
  EXPECT_TRUE(env().ExceptionCheck());
  env().ExceptionClear();
}

TEST_F(JniEnvTest, StringCriticalBlocksGcLikeArrayCritical) {
  jstring Str = env().NewStringUTF(*Scope, "critical");
  jboolean IsCopy;
  auto P = env().GetStringCritical(Str, &IsCopy);
  EXPECT_EQ(S->runtime().criticalDepth(), 1u);
  EXPECT_EQ(mte::load(P), 'c');
  env().ReleaseStringCritical(Str, P);
  EXPECT_EQ(S->runtime().criticalDepth(), 0u);
}

TEST_F(JniEnvTest, NewStringUTFNullRejected) {
  jstring Str = env().NewStringUTF(*Scope, nullptr);
  EXPECT_EQ(Str, nullptr);
  EXPECT_TRUE(env().ExceptionCheck());
  env().ExceptionClear();
}

TEST_F(JniEnvTest, StringOnArrayInterfaceRejected) {
  jstring Str = env().NewStringUTF(*Scope, "notanarray");
  jboolean IsCopy;
  auto E = env().GetIntArrayElements(Str, &IsCopy);
  EXPECT_TRUE(E.isNull());
  EXPECT_TRUE(env().ExceptionCheck());
  env().ExceptionClear();
}

} // namespace
