//===- support_infra_test.cpp - Backtrace / syscalls / logging / pool ---------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/support/Backtrace.h"
#include "mte4jni/support/Logging.h"
#include "mte4jni/support/Syscall.h"
#include "mte4jni/support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace {

using namespace mte4jni::support;

TEST(Backtrace, ScopedFramesNest) {
  size_t Base = FrameStack::current().depth();
  {
    ScopedFrame A("outer", "libapp.so");
    EXPECT_EQ(FrameStack::current().depth(), Base + 1);
    {
      ScopedFrame B("inner", "libapp.so");
      auto Frames = FrameStack::current().capture();
      ASSERT_GE(Frames.size(), 2u);
      // Innermost first, like a crash dump.
      EXPECT_STREQ(Frames[0].Function, "inner");
      EXPECT_STREQ(Frames[1].Function, "outer");
    }
    EXPECT_EQ(FrameStack::current().depth(), Base + 1);
  }
  EXPECT_EQ(FrameStack::current().depth(), Base);
}

TEST(Backtrace, PerThreadStacks) {
  ScopedFrame Mine("main_frame", "libapp.so");
  std::thread Other([] {
    EXPECT_TRUE(FrameStack::current().empty());
    ScopedFrame Theirs("worker_frame", "libapp.so");
    auto Frames = FrameStack::current().capture();
    ASSERT_EQ(Frames.size(), 1u);
    EXPECT_STREQ(Frames[0].Function, "worker_frame");
  });
  Other.join();
}

TEST(Backtrace, RenderLooksLikeLogcat) {
  std::vector<FrameInfo> Frames = {{"test_ofb", "libapp.so"},
                                   {"trampoline", "libart.so"}};
  std::string Out = renderBacktrace(Frames);
  EXPECT_NE(Out.find("backtrace:"), std::string::npos);
  EXPECT_NE(Out.find("#00"), std::string::npos);
  EXPECT_NE(Out.find("test_ofb"), std::string::npos);
  EXPECT_NE(Out.find("#01"), std::string::npos);
}

TEST(Syscall, ObserversFireOnBarrier) {
  static std::atomic<int> Calls{0};
  static std::string LastName;
  int Token = addSyscallObserver(
      [](void *, const char *Name) {
        ++Calls;
        LastName = Name;
      },
      nullptr);
  uint64_t Before = syscallBarrierCount();
  syscallBarrier("getuid");
  EXPECT_EQ(Calls.load(), 1);
  EXPECT_EQ(LastName, "getuid");
  EXPECT_EQ(syscallBarrierCount(), Before + 1);

  removeSyscallObserver(Token);
  syscallBarrier("write");
  EXPECT_EQ(Calls.load(), 1); // removed: no further calls
}

TEST(Syscall, ObserverSeesSyscallFrame) {
  // The barrier pushes a frame for the kernel entry so async fault
  // backtraces show e.g. getuid() on top.
  static std::vector<FrameInfo> Captured;
  Captured.clear();
  int Token = addSyscallObserver(
      [](void *, const char *) {
        Captured = FrameStack::current().capture();
      },
      nullptr);
  syscallBarrier("getuid");
  removeSyscallObserver(Token);
  ASSERT_FALSE(Captured.empty());
  EXPECT_STREQ(Captured[0].Function, "getuid");
  EXPECT_STREQ(Captured[0].Module, "libc.so");
}

TEST(Logging, BufferRetainsRecords) {
  LogBuffer::clear();
  logInfo("TestTag", "value=%d", 42);
  logError("TestTag", "boom");
  auto Records = LogBuffer::snapshot();
  ASSERT_EQ(Records.size(), 2u);
  EXPECT_EQ(Records[0].Severity, LogSeverity::Info);
  EXPECT_EQ(Records[0].Tag, "TestTag");
  EXPECT_EQ(Records[0].Message, "value=42");
  EXPECT_EQ(Records[1].Severity, LogSeverity::Error);
  LogBuffer::clear();
  EXPECT_EQ(LogBuffer::size(), 0u);
}

TEST(Logging, WritingIsASyscallBoundary) {
  uint64_t Before = syscallBarrierCount();
  logDebug("T", "x");
  EXPECT_EQ(syscallBarrierCount(), Before + 1);
  LogBuffer::clear();
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Hits(1000);
  Pool.parallelFor(1000, [&](size_t I) { ++Hits[I]; });
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool Pool(3);
  std::atomic<int> Done{0};
  for (int I = 0; I < 50; ++I)
    Pool.submit([&Done] { ++Done; });
  Pool.waitIdle();
  EXPECT_EQ(Done.load(), 50);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.size(), 1u);
  std::atomic<int> Done{0};
  Pool.parallelFor(10, [&](size_t) { ++Done; });
  EXPECT_EQ(Done.load(), 10);
}

TEST(ThreadPool, HardwareThreadsNonZero) {
  EXPECT_GE(hardwareThreads(), 1u);
#if defined(__linux__)
  // Sized from the calling thread's affinity mask, so taskset and cpusets
  // count: restricted to the first CPU of its mask, this thread sees 1.
  cpu_set_t Saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(Saved), &Saved), 0);
  int First = 0;
  while (First < CPU_SETSIZE && !CPU_ISSET(First, &Saved))
    ++First;
  ASSERT_LT(First, CPU_SETSIZE);
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(First, &One);
  ASSERT_EQ(sched_setaffinity(0, sizeof(One), &One), 0);
  size_t Pinned = hardwareThreads();
  ASSERT_EQ(sched_setaffinity(0, sizeof(Saved), &Saved), 0);
  EXPECT_EQ(Pinned, 1u);
  EXPECT_EQ(hardwareThreads(), static_cast<size_t>(CPU_COUNT(&Saved)));
#endif
}

// parallelFor waits on ITS batch only: a long-running unrelated submit()
// must not extend the wait. The seed implementation funnelled through
// waitIdle() and deadlocked here (the blocked task never finishes until
// parallelFor returns).
TEST(ThreadPool, ParallelForIgnoresUnrelatedTasks) {
  ThreadPool Pool(4);
  std::mutex Gate;
  Gate.lock();
  Pool.submit([&Gate] {
    Gate.lock(); // held by the main thread until after parallelFor returns
    Gate.unlock();
  });
  std::atomic<int> Done{0};
  Pool.parallelFor(100, [&](size_t) { ++Done; });
  EXPECT_EQ(Done.load(), 100);
  Gate.unlock(); // only now may the blocked task finish
  Pool.waitIdle();
}

// Calling parallelFor from one of the pool's own workers would block a
// worker slot its own batch needs; the pool asserts instead of hanging.
TEST(ThreadPoolDeathTest, WorkerReentrantParallelForAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool Pool(2);
        Pool.parallelFor(2, [&Pool](size_t) {
          Pool.parallelFor(2, [](size_t) {});
        });
      },
      "parallelFor re-entered");
}

} // namespace
