//===- Gc.h - Stop-the-world mark-sweep collector --------------------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A mark-sweep collector with an optional background thread. Two details
/// matter for the paper's reproduction:
///
///   * The GC accesses the heap with *untagged* pointers ("the pointer in
///     the GC thread never walks through the JNI interface to be tagged",
///     §3.3). The optional verification pass reads object payloads, so if
///     the GC thread's tag checks were enabled it would fault on every
///     array currently tagged by MTE4JNI. GcConfig::SuppressTagChecks
///     models the correct TCO handling; setting it to false reproduces the
///     failure the paper warns about.
///   * Objects pinned by JNI Get* interfaces are never swept, and the
///     collector waits for JNI critical sections to drain before running.
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_RT_GC_H
#define MTE4JNI_RT_GC_H

#include "mte4jni/rt/Object.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mte4jni::support {
class ThreadPool;
} // namespace mte4jni::support

namespace mte4jni::rt {

class Runtime;

enum class GcMode : uint8_t {
  /// Mark-sweep in place; objects never move.
  MarkSweep,
  /// Mark-compact: live objects slide toward the heap base, handle-scope
  /// roots are updated — EXCEPT objects pinned by JNI Get* interfaces,
  /// which stay put (ART's rule: native code holds raw pointers into
  /// them). This mode makes the pin semantics observable.
  Compacting,
};

struct GcConfig {
  GcMode Mode = GcMode::MarkSweep;
  /// Run a background thread that collects every IntervalMillis.
  bool BackgroundThread = false;
  uint32_t IntervalMillis = 5;
  /// Heap verification: read every live object's payload (through the
  /// checked-access API with untagged pointers) — the access pattern that
  /// makes thread-level MTE control necessary.
  bool VerifyObjectBodies = true;
  /// Keep TCO set on the GC thread (correct §3.3 behaviour). Setting this
  /// to false demonstrates the crash mode the paper describes.
  bool SuppressTagChecks = true;
  /// Worker threads for the mark-clear, mark, sweep and slot-rewrite
  /// phases. 1 = single-threaded (the ablation baseline); 0 = auto
  /// (min(hardware threads, 8)). The verify pass is always
  /// single-threaded.
  unsigned Parallelism = 0;
};

struct GcResult {
  uint64_t ObjectsScanned = 0;
  uint64_t ObjectsFreed = 0;
  uint64_t BytesFreed = 0;
  uint64_t ObjectsVerified = 0;
  uint64_t PayloadBytesVerified = 0;
  uint64_t ObjectsMoved = 0;   ///< compacting mode only
  uint64_t ObjectsPinnedInPlace = 0;
};

class GcController {
public:
  GcController(Runtime &RT, const GcConfig &Config);
  ~GcController();

  GcController(const GcController &) = delete;
  GcController &operator=(const GcController &) = delete;

  /// Starts the background thread when configured; idempotent.
  void start();

  /// Stops the background thread; idempotent.
  void stop();

  /// Runs one stop-the-world collection on the calling thread.
  GcResult collect();

  uint64_t completedCycles() const {
    return Cycles.load(std::memory_order_relaxed);
  }

  const GcConfig &config() const { return Config; }

  /// Resolved worker count (after the Parallelism=0 auto rule).
  unsigned workers() const { return Workers; }

private:
  void backgroundLoop();
  void verifyPass(GcResult &Result);

  /// Runs Body(Stripe) for every stripe: inline when Workers == 1, on the
  /// lazily created pool otherwise.
  void runStriped(unsigned NumStripes,
                  const std::function<void(size_t)> &Body);
  /// Clears every live object's mark bit; returns the object count.
  uint64_t clearMarks();
  /// Marks everything transitively reachable from \p Roots.
  void markFromRoots(std::vector<ObjectHeader *> Roots);
  /// Frees unmarked, unpinned objects onto the calling (collecting)
  /// thread's free list at every parallelism; accumulates into \p Result.
  void sweep(GcResult &Result);

  Runtime &RT;
  GcConfig Config;
  unsigned Workers = 1;
  std::unique_ptr<support::ThreadPool> Pool;

  std::thread Worker;
  std::atomic<bool> Running{false};
  std::atomic<bool> StopRequested{false};
  std::mutex WakeLock;
  std::condition_variable WakeCv;

  std::atomic<uint64_t> Cycles{0};
  /// Keeps the verify pass's reads observable to the optimiser.
  volatile uint8_t VerifySink = 0;
};

} // namespace mte4jni::rt

#endif // MTE4JNI_RT_GC_H
