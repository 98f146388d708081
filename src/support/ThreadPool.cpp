//===- ThreadPool.cpp - Minimal fixed-size thread pool ------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/support/ThreadPool.h"

#include "mte4jni/support/Compiler.h"
#include "mte4jni/support/TraceRing.h"

#include <atomic>
#include <condition_variable>
#include <string>

#if defined(__linux__)
#include <sched.h>
#endif

namespace mte4jni::support {

namespace {
/// The pool whose workerLoop is running on this thread, if any; used to
/// reject worker-reentrant parallelFor, which would block a worker on a
/// batch that needs that same worker to drain.
thread_local const ThreadPool *CurrentWorkerPool = nullptr;
} // namespace

size_t hardwareThreads() {
#if defined(__linux__)
  // hardware_concurrency() counts every online CPU; the calling thread's
  // affinity mask is what taskset and cpusets actually leave it.
  cpu_set_t Mask;
  if (sched_getaffinity(0, sizeof(Mask), &Mask) == 0 && CPU_COUNT(&Mask) > 0)
    return static_cast<size_t>(CPU_COUNT(&Mask));
#endif
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

ThreadPool::ThreadPool(size_t NumThreads, const char *LabelPrefix) {
  if (NumThreads == 0)
    NumThreads = 1;
  Workers.reserve(NumThreads);
  for (size_t I = 0; I < NumThreads; ++I)
    Workers.emplace_back([this, I, LabelPrefix] { workerLoop(I, LabelPrefix); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Guard(Lock);
    ShuttingDown = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &Worker : Workers)
    Worker.join();
}

void ThreadPool::submit(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Guard(Lock);
    M4J_ASSERT(!ShuttingDown, "submit after shutdown");
    Queue.push(std::move(Task));
    ++InFlight;
  }
  WorkAvailable.notify_one();
}

void ThreadPool::waitIdle() {
  std::unique_lock<std::mutex> Guard(Lock);
  AllDone.wait(Guard, [this] { return InFlight == 0; });
}

void ThreadPool::parallelFor(size_t Count,
                             const std::function<void(size_t)> &Body) {
  if (Count == 0)
    return;
  M4J_ASSERT(CurrentWorkerPool != this,
             "parallelFor re-entered from a worker of the same pool; the "
             "caller would block a worker slot its own batch needs");
  // Completion is tracked per batch, NOT via waitIdle(): waiting for the
  // pool to go globally idle blocks this call on unrelated tasks other
  // threads submit concurrently (and deadlocks outright if one of those
  // never finishes). The batch state lives on this frame; the final shard
  // signals Done before the frame is allowed to unwind.
  struct Batch {
    std::mutex Lock;
    std::condition_variable Done;
    size_t Pending;
    std::atomic<size_t> Next{0};
  } B;
  size_t Shards = std::min(Count, Workers.size());
  B.Pending = Shards;
  for (size_t S = 0; S < Shards; ++S) {
    submit([&B, Count, &Body] {
      for (;;) {
        size_t I = B.Next.fetch_add(1, std::memory_order_relaxed);
        if (I >= Count)
          break;
        Body(I);
      }
      std::lock_guard<std::mutex> Guard(B.Lock);
      if (--B.Pending == 0)
        B.Done.notify_one();
    });
  }
  std::unique_lock<std::mutex> Guard(B.Lock);
  B.Done.wait(Guard, [&B] { return B.Pending == 0; });
}

void ThreadPool::workerLoop(size_t Index, const char *LabelPrefix) {
  CurrentWorkerPool = this;
  // LabelPrefix must have static storage duration (callers pass literals):
  // the worker reads it after the ctor has returned.
  if (LabelPrefix != nullptr)
    FlightRecorder::setThreadLabel(std::string(LabelPrefix) + "-" +
                                   std::to_string(Index));
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Guard(Lock);
      WorkAvailable.wait(Guard,
                         [this] { return ShuttingDown || !Queue.empty(); });
      if (Queue.empty()) {
        // Only possible when shutting down.
        return;
      }
      Task = std::move(Queue.front());
      Queue.pop();
    }
    Task();
    {
      std::lock_guard<std::mutex> Guard(Lock);
      --InFlight;
      if (InFlight == 0)
        AllDone.notify_all();
    }
  }
}

} // namespace mte4jni::support
