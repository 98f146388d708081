//===- Compiler.h - Portability and diagnostic macros ------------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small portability layer: branch hints, assertion helpers and attribute
/// macros used across every MTE4JNI library. Kept dependency-free so it can
/// be included from anywhere.
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_SUPPORT_COMPILER_H
#define MTE4JNI_SUPPORT_COMPILER_H

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#if defined(__GNUC__) || defined(__clang__)
#define M4J_LIKELY(X) __builtin_expect(!!(X), 1)
#define M4J_UNLIKELY(X) __builtin_expect(!!(X), 0)
#define M4J_ALWAYS_INLINE inline __attribute__((always_inline))
#define M4J_NOINLINE __attribute__((noinline))
#else
#define M4J_LIKELY(X) (X)
#define M4J_UNLIKELY(X) (X)
#define M4J_ALWAYS_INLINE inline
#define M4J_NOINLINE
#endif

/// Assertion macro. Unlike plain assert(), it stays in NDEBUG builds: these
/// checks guard simulator invariants.
#define M4J_ASSERT(Cond, Msg)                                                  \
  do {                                                                         \
    if (M4J_UNLIKELY(!(Cond))) {                                               \
      ::mte4jni::support::assertFail(#Cond, Msg, __FILE__, __LINE__);          \
    }                                                                          \
  } while (false)

#define M4J_UNREACHABLE(Msg)                                                   \
  ::mte4jni::support::unreachableHit(Msg, __FILE__, __LINE__)

namespace mte4jni::support {

/// Prints an assertion failure and aborts. Out-of-line so the assert macro
/// stays small at call sites.
[[noreturn]] void assertFail(const char *Cond, const char *Msg,
                             const char *File, int Line);

/// Reports reaching a spot the programmer believed unreachable, then aborts.
[[noreturn]] void unreachableHit(const char *Msg, const char *File, int Line);

} // namespace mte4jni::support

#endif // MTE4JNI_SUPPORT_COMPILER_H
