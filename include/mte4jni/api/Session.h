//===- Session.h - One-stop façade over the protection schemes -------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Session wires the whole stack — MTE simulator configuration, runtime
/// (heap alignment, PROT_MTE, trampoline TCO behaviour), and JNI check
/// policy — for one of the schemes the paper evaluates (§5.1):
///
///   Scheme::NoProtection — checking disabled (Android production default)
///   Scheme::GuardedCopy  — CheckJNI guarded copy
///   Scheme::Mte4JniSync  — MTE4JNI, synchronous TCF
///   Scheme::Mte4JniAsync — MTE4JNI, asynchronous TCF
///
/// Typical use:
///
/// \code
///   api::Session S({.Protection = api::Scheme::Mte4JniSync});
///   api::ScopedAttach Main(S, "main");
///   rt::HandleScope Scope(S.runtime());
///   jni::jintArray A = Main.env().NewIntArray(Scope, 18);
///   rt::callNative(Main.thread(), rt::NativeKind::Regular, "my_native",
///                  [&] { ... Main.env().GetPrimitiveArrayCritical(A, ...)
///                  ... });
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_API_SESSION_H
#define MTE4JNI_API_SESSION_H

#include "mte4jni/core/Mte4JniPolicy.h"
#include "mte4jni/guarded/GuardedCopy.h"
#include "mte4jni/mte/Fault.h"
#include "mte4jni/jni/JniEnv.h"
#include "mte4jni/jni/PolicyNone.h"
#include "mte4jni/rt/Runtime.h"
#include "mte4jni/rt/Trampoline.h"
#include "mte4jni/support/Metrics.h"
#include "mte4jni/support/TraceRing.h"

#include <memory>
#include <string>

namespace mte4jni::api {

enum class Scheme : uint8_t {
  NoProtection,
  GuardedCopy,
  Mte4JniSync,
  Mte4JniAsync,
};

const char *schemeName(Scheme S);

struct SessionConfig {
  Scheme Protection = Scheme::NoProtection;

  /// Tag-table implementation for the MTE4JNI tag allocator (Figure 6's
  /// ablation): lock-free fast path by default; TwoTierMutex is the
  /// paper's published locking, GlobalLock the §3.1 strawman.
  core::TagTableKind Locks = core::TagTableKind::LockFree;
  /// Optional hardening: exclude neighbouring granules' tags in IRG so
  /// adjacent-object overflows are deterministically caught.
  bool ExcludeAdjacentTags = false;
  /// Deferred tag-clear for the lock-free tag table: a single-holder
  /// Release leaves the granule tags resident (one CAS, no mutex, no STG
  /// loop) and the next Get of the same range is a pure CAS too. Tags are
  /// reclaimed when the object is freed, swept or moved (the session hooks
  /// rt::JavaHeap's freed-range callback) and when the resident-bytes
  /// budget overflows. Off reproduces the paper's exact Algorithm 2 (clear
  /// on last release); no bench turns it off, the tests of that semantics
  /// do. Note the tradeoff: deferral narrows use-after-release detection
  /// to the post-reclaim window.
  bool DeferredTagClear = true;

  uint64_t HeapBytes = 64ull << 20;
  /// 0 = pick automatically (16 under MTE4JNI per §4.1, else 8).
  unsigned HeapAlignment = 0;

  /// Guarded-copy red-zone size per side.
  uint64_t GuardedRedZoneBytes = 2048;

  bool BackgroundGc = false;
  uint32_t GcIntervalMillis = 5;
  bool GcVerifiesBodies = true;
  /// Correct §3.3 behaviour (default). Set false to reproduce the
  /// spurious-fault failure mode of a GC whose checks are left enabled.
  bool GcSuppressTagChecks = true;

  /// Flight-recorder capture mode (process-wide; the constructor applies
  /// it via support::obs::setMode). Sampled keeps hot-path events at ~1/64
  /// with negligible overhead; Full records every event for trace exports;
  /// Off compiles down to one relaxed load per instrumented site.
  support::FlightMode TraceMode = support::FlightMode::Sampled;

  uint64_t Seed = 1;
};

/// Owns the runtime + policy for one protection scheme.
class Session {
public:
  explicit Session(const SessionConfig &Config);
  ~Session();

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  const SessionConfig &config() const { return Config; }
  Scheme scheme() const { return Config.Protection; }

  rt::Runtime &runtime() { return *Runtime; }
  jni::CheckPolicy &policy() { return *Policy; }

  /// The MTE4JNI policy, or nullptr for non-MTE schemes.
  core::Mte4JniPolicy *mtePolicy() { return MtePolicy; }
  /// The guarded-copy policy, or nullptr otherwise.
  guarded::GuardedCopyPolicy *guardedPolicy() { return GuardedPolicy; }

  /// Creates a JNI environment (use one per thread, like real JNI).
  std::unique_ptr<jni::JniEnv> makeEnv() {
    return std::make_unique<jni::JniEnv>(*Runtime, *Policy);
  }

  /// Fault log of the underlying MTE system.
  mte::FaultLog &faults();

  /// Human-readable end-of-run summary: heap, GC, MTE-instruction and
  /// policy statistics. Handy at the end of examples and benchmarks. The
  /// MTE and policy counts are this session's: registry deltas from a
  /// snapshot taken at construction, or counts since the last
  /// Metrics::resetAll() when one ran during the session.
  std::string statsReport() const;

  /// Point-in-time aggregation of the process-wide metrics registry
  /// (tag checks, table fast/slow paths, JNI pins, GC phases, fault ring).
  /// Process-wide, not per-session: concurrent sessions share the registry.
  support::MetricsSnapshot metricsSnapshot() const;

  /// Writes metricsSnapshot().toJson() to \p Path. Returns false (and
  /// leaves no partial file behind on open failure) when the file cannot
  /// be written.
  bool writeMetricsJson(const std::string &Path) const;

  /// Writes support::FlightRecorder::exportChromeJson() to \p Path — a
  /// Chrome trace-event / Perfetto-loadable timeline of every thread's
  /// flight ring. Same failure contract as writeMetricsJson.
  bool writeTraceJson(const std::string &Path) const;

private:
  SessionConfig Config;
  std::unique_ptr<rt::Runtime> Runtime;
  std::unique_ptr<jni::CheckPolicy> Policy;
  core::Mte4JniPolicy *MtePolicy = nullptr;
  guarded::GuardedCopyPolicy *GuardedPolicy = nullptr;
  /// Registry state at construction, the base statsReport counts from.
  support::MetricsSnapshot Baseline;
  uint64_t BaselineResets = 0;
};

/// RAII: attach the current thread to a session's runtime and give it an
/// env; detaches on destruction.
class ScopedAttach {
public:
  ScopedAttach(Session &S, std::string Name,
               rt::ThreadKind Kind = rt::ThreadKind::Mutator)
      : S(S), Thread(S.runtime().attachCurrentThread(std::move(Name), Kind)),
        Env(S.makeEnv()) {}

  ~ScopedAttach() { S.runtime().detachCurrentThread(); }

  ScopedAttach(const ScopedAttach &) = delete;
  ScopedAttach &operator=(const ScopedAttach &) = delete;

  rt::JavaThread &thread() { return Thread; }
  jni::JniEnv &env() { return *Env; }
  Session &session() { return S; }

private:
  Session &S;
  rt::JavaThread &Thread;
  std::unique_ptr<jni::JniEnv> Env;
};

} // namespace mte4jni::api

#endif // MTE4JNI_API_SESSION_H
