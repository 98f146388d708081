//===- Clients.h - The benchmark's workloads and their native calls -*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A workload is a weighted mix of call kinds plus the illicit-access
/// classes it plants. A Client owns one thread's fixtures and makes one
/// call at a time; a CallSequence yields that thread's fixed, seeded call
/// order. Every benign call is a pure function of (kind, input), so a
/// no-protection pass over every distinct input gives the reference
/// checksum each call is compared with.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CLIENTS_H
#define PERFBENCH_CLIENTS_H

#include "Stats.h"
#include "Trace.h"

#include "mte4jni/api/Session.h"
#include "mte4jni/support/Rng.h"
#include "mte4jni/workloads/Workload.h"

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

enum class WorkloadId : uint8_t { PinChurn, JniScan, ServerGc };

enum class CallKind : uint8_t {
  // pin_churn
  Fig5Copy,   ///< copy between two pinned int arrays, 2^1..2^12 ints
  SharedRead, ///< fig6 read of the one array every thread pins
  WriteBack,  ///< Get/ReleaseIntArrayElements with copy-back
  // jni_scan
  Clang,
  Text,
  Pdf,
  PerElement, ///< pin, one mte::load loop, one mte::store loop, release
  // server_gc (plus HtmlDom)
  ArrayPinRead, ///< pinned bulk read of a 1024-int array
  StringScan,   ///< string critical + per-char checked scan
  RegionCopy,   ///< Get/SetIntArrayRegion + local-frame garbage
  HtmlDom,      ///< "HTML5 DOM Strings"
  kNumKinds
};
inline constexpr unsigned kNumKinds = static_cast<unsigned>(CallKind::kNumKinds);

/// One planted illicit access every kPlantEvery calls of a thread.
inline constexpr uint64_t kPlantEvery = 1000;

struct WorkloadSpec {
  WorkloadId Id;
  const char *Name;
  bool BackgroundGc;
  /// Call kinds and their relative weights.
  std::vector<std::pair<CallKind, unsigned>> Mix;
  /// Planted classes, taken in turn, one per kPlantEvery calls.
  std::vector<Plant> Plants;
  /// Fixed work: calls per client thread per second of --seconds. The rate
  /// four client threads reached on the reference host in a slower period,
  /// so the timed section lasts about --seconds there (see README.md).
  uint64_t CallsPerThreadPerSecond;
  /// Calls per thread before timing starts.
  uint64_t WarmupCalls;
};

/// nullptr when \p Name names no workload.
const WorkloadSpec *findWorkload(std::string_view Name);
const std::vector<WorkloadSpec> &allWorkloads();

/// Number of distinct inputs a call of kind \p K takes.
unsigned numInputs(CallKind K);

/// Reference checksums, by kind and input.
using ReferenceTable = std::array<std::vector<uint64_t>, kNumKinds>;

/// Objects every client shares, created on the main thread.
struct SharedFixtures {
  mte4jni::jni::jarray SharedArray = nullptr;
};

SharedFixtures makeSharedFixtures(mte4jni::jni::JniEnv &Env,
                                  mte4jni::rt::HandleScope &Scope,
                                  uint64_t Seed);

struct Call {
  bool IsPlant = false;
  CallKind Kind = CallKind::Fig5Copy;
  Plant P = Plant::OobRead;
  /// Input index of a benign call; byte offset choice of a planted one.
  unsigned Input = 0;
};

/// The fixed call order of one thread: kinds come in shuffled blocks with
/// exactly the mix's weights, and each run of kPlantEvery calls holds one
/// planted access at a seeded position, the classes taken in turn.
class CallSequence {
public:
  CallSequence(const WorkloadSpec &Spec, uint64_t Seed);
  Call next();

private:
  const WorkloadSpec &Spec;
  mte4jni::support::Xoshiro256 Rng;
  std::vector<CallKind> Block;
  size_t BlockPos;
  uint64_t Index = 0;
  uint64_t PlantAt = 0;
};

struct CallResult {
  uint64_t Sum = 0;
  uint64_t EndNanos = 0;
};

/// One client thread's fixtures and calls. Construct on the thread that
/// will make the calls, after attaching it.
class Client {
public:
  Client(mte4jni::api::Session &S, mte4jni::api::ScopedAttach &Me,
         mte4jni::rt::HandleScope &Scope, const WorkloadSpec &Spec,
         const SharedFixtures &Shared, uint64_t FixtureSeed);

  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  /// Makes \p C. \p StartNanos is the clock read taken just before; the
  /// result carries the read taken just after. With \p Tr the call's spans
  /// tile [StartNanos, EndNanos] exactly. Data a call copies out is summed
  /// into its checksum after that read.
  CallResult call(const Call &C, uint64_t StartNanos, uint64_t CallId,
                  SpanTracer *Tr);

  mte4jni::jni::JniEnv &env() { return Me.env(); }

  /// Allocates \p Arrays 128-int local arrays inside one native call, for
  /// warming the heap.
  void allocateGarbage(unsigned Arrays);

private:
  uint64_t benign(CallKind K, unsigned Input, SpanTracer *Tr);
  uint64_t planted(Plant P, unsigned Input, SpanTracer *Tr);

  mte4jni::api::Session &S;
  mte4jni::api::ScopedAttach &Me;
  const SharedFixtures &Shared;
  mte4jni::workloads::WorkloadContext Ctx;

  // pin_churn
  mte4jni::jni::jarray Src = nullptr, Dst = nullptr, WriteBackArray = nullptr;
  std::vector<mte4jni::jni::jint> Pattern;
  // jni_scan
  std::unique_ptr<mte4jni::workloads::Workload> Clang, Text, Pdf, Html;
  mte4jni::jni::jarray ElementArray = nullptr;
  // server_gc
  mte4jni::jni::jarray ServerArray = nullptr;
  mte4jni::jni::jstring ServerString = nullptr;
  std::vector<mte4jni::jni::jint> Scratch; ///< data the calls copy out
  // planted accesses: a probe array between two never-pinned pads
  mte4jni::jni::jarray Probe = nullptr;
  int64_t ProbeExtent = 0;
};

} // namespace perfbench

#endif // PERFBENCH_CLIENTS_H
