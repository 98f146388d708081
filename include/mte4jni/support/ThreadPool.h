//===- ThreadPool.h - Minimal fixed-size thread pool ---------------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size thread pool; the GC's `gc-worker` pool runs its parallel
/// mark, sweep and rewrite phases on it. Deliberately simple: a work
/// queue, a parallel-for helper, and a barrier-style wait.
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_SUPPORT_THREADPOOL_H
#define MTE4JNI_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mte4jni::support {

class ThreadPool {
public:
  /// Creates \p NumThreads workers (at least 1). When \p LabelPrefix is
  /// non-null each worker names its flight-recorder lane
  /// "<prefix>-<index>" so exported traces show e.g. gc-worker-0..N
  /// instead of anonymous tids.
  explicit ThreadPool(size_t NumThreads, const char *LabelPrefix = nullptr);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  size_t size() const { return Workers.size(); }

  /// Enqueues a task for asynchronous execution.
  void submit(std::function<void()> Task);

  /// Blocks until every submitted task has completed — including tasks
  /// other threads submit while this call is waiting. For a wait scoped to
  /// your own work, use parallelFor (per-batch completion).
  void waitIdle();

  /// Runs Body(I) for I in [0, Count) across the pool and waits for THIS
  /// batch only: concurrent unrelated submit()s do not extend the wait.
  /// Asserts when called from one of this pool's own workers (the caller
  /// would block a worker slot its own batch needs — a deadlock).
  void parallelFor(size_t Count, const std::function<void(size_t)> &Body);

private:
  void workerLoop(size_t Index, const char *LabelPrefix);

  std::vector<std::thread> Workers;
  std::queue<std::function<void()>> Queue;
  std::mutex Lock;
  std::condition_variable WorkAvailable;
  std::condition_variable AllDone;
  size_t InFlight = 0;
  bool ShuttingDown = false;
};

/// CPUs the calling thread may run on (its affinity mask on Linux, else
/// std::thread::hardware_concurrency()), never zero.
size_t hardwareThreads();

} // namespace mte4jni::support

#endif // MTE4JNI_SUPPORT_THREADPOOL_H
