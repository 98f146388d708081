//===- support_metrics_test.cpp - Metrics registry tests ------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/support/Metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cctype>
#include <thread>
#include <vector>

namespace {

using namespace mte4jni;
using support::FaultEvent;
using support::FaultRing;
using support::Histogram;
using support::Metrics;
using support::MetricsSnapshot;

class MetricsTest : public ::testing::Test {
protected:
  void SetUp() override { Metrics::resetAll(); }
  void TearDown() override { Metrics::resetAll(); }
};

// ==== a tiny JSON validator (no parser dependency in this repo) ===========
//
// Checks structural well-formedness: balanced braces/brackets outside
// strings, properly terminated strings, and no trailing garbage. Enough to
// catch the classic exporter bugs (unescaped quote, missing comma brace).

bool jsonStructurallyValid(const std::string &Text) {
  std::vector<char> Stack;
  bool InString = false;
  bool Escaped = false;
  for (char C : Text) {
    if (InString) {
      if (Escaped)
        Escaped = false;
      else if (C == '\\')
        Escaped = true;
      else if (C == '"')
        InString = false;
      else if (static_cast<unsigned char>(C) < 0x20)
        return false; // control characters must be escaped
      continue;
    }
    switch (C) {
    case '"':
      InString = true;
      break;
    case '{':
    case '[':
      Stack.push_back(C);
      break;
    case '}':
      if (Stack.empty() || Stack.back() != '{')
        return false;
      Stack.pop_back();
      break;
    case ']':
      if (Stack.empty() || Stack.back() != '[')
        return false;
      Stack.pop_back();
      break;
    default:
      break;
    }
  }
  return !InString && Stack.empty();
}

// ==== counters ============================================================

TEST_F(MetricsTest, CounterConcurrentIncrementsSumExactly) {
  support::Counter &C = Metrics::counter("test/concurrent_counter");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < kThreads; ++T)
    Threads.emplace_back([&C] {
      for (uint64_t I = 0; I < kPerThread; ++I)
        C.add();
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(C.value(), kThreads * kPerThread);

  MetricsSnapshot S = Metrics::snapshot();
  EXPECT_EQ(S.counterValue("test/concurrent_counter"),
            kThreads * kPerThread);
}

TEST_F(MetricsTest, CounterSameNameSameInstance) {
  support::Counter &A = Metrics::counter("test/same_name");
  support::Counter &B = Metrics::counter("test/same_name");
  EXPECT_EQ(&A, &B);
  A.add(3);
  EXPECT_EQ(B.value(), 3u);
}

TEST_F(MetricsTest, GaugeUpdateMaxKeepsHighWaterMark) {
  support::Gauge &G = Metrics::gauge("test/hwm");
  G.updateMax(5);
  G.updateMax(2);
  EXPECT_EQ(G.value(), 5);
  G.updateMax(9);
  EXPECT_EQ(G.value(), 9);
  G.set(-4);
  EXPECT_EQ(G.value(), -4);
}

// ==== histograms ==========================================================

TEST_F(MetricsTest, HistogramBucketsAreLogScale) {
  EXPECT_EQ(Histogram::bucketOf(0), 0u);
  EXPECT_EQ(Histogram::bucketOf(1), 1u);
  EXPECT_EQ(Histogram::bucketOf(2), 2u);
  EXPECT_EQ(Histogram::bucketOf(3), 2u);
  EXPECT_EQ(Histogram::bucketOf(1023), 10u);
  EXPECT_EQ(Histogram::bucketOf(1024), 11u);
  EXPECT_EQ(Histogram::bucketOf(uint64_t(1) << 63), 63u); // clamped
  EXPECT_EQ(Histogram::bucketOf(UINT64_MAX), 63u);        // clamped
  EXPECT_EQ(Histogram::bucketUpperBound(0), 1u);
  EXPECT_EQ(Histogram::bucketUpperBound(10), 1024u);
  EXPECT_EQ(Histogram::bucketUpperBound(63), UINT64_MAX);
}

TEST_F(MetricsTest, HistogramConcurrentRecordsConsistentSnapshot) {
  support::Histogram &H = Metrics::histogram("test/concurrent_hist");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 5000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < kThreads; ++T)
    Threads.emplace_back([&H, T] {
      for (uint64_t I = 0; I < kPerThread; ++I)
        H.record((I % 1000) + static_cast<uint64_t>(T));
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(H.count(), kThreads * kPerThread);
  MetricsSnapshot S = Metrics::snapshot();
  const support::HistogramSample *Sample =
      S.histogram("test/concurrent_hist");
  ASSERT_NE(Sample, nullptr);
  EXPECT_EQ(Sample->Count, kThreads * kPerThread);
  // Bucket totals must agree with the count once writers are quiescent.
  uint64_t BucketTotal = 0;
  for (uint64_t B : Sample->Buckets)
    BucketTotal += B;
  EXPECT_EQ(BucketTotal, Sample->Count);
  EXPECT_GT(Sample->Sum, 0u);
  EXPECT_GT(Sample->mean(), 0.0);
}

// Cross-cell merge: more writer threads than inline thread slots, so some
// cells live in chunks, with exactly computable totals. Every sample must
// be accounted exactly once across Count, Sum, the bucket array, and the
// per-cell Min/Max reduction.
TEST_F(MetricsTest, HistogramCrossShardMergeAccountsEverySampleOnce) {
  support::Histogram &H = Metrics::histogram("test/cross_shard_hist");
  // More threads than there are inline thread slots (16).
  constexpr int kThreads = 24;
  constexpr uint64_t kPerThread = 2000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < kThreads; ++T)
    Threads.emplace_back([&H, T] {
      // Thread T records T+1, 2(T+1), ..., kPerThread*(T+1).
      for (uint64_t I = 1; I <= kPerThread; ++I)
        H.record(I * static_cast<uint64_t>(T + 1));
    });
  for (std::thread &T : Threads)
    T.join();

  constexpr uint64_t kCount = uint64_t(kThreads) * kPerThread;
  // sum over T of (T+1) * kPerThread*(kPerThread+1)/2
  constexpr uint64_t kSum = (uint64_t(kThreads) * (kThreads + 1) / 2) *
                            (kPerThread * (kPerThread + 1) / 2);
  EXPECT_EQ(H.count(), kCount);
  EXPECT_EQ(H.minValue(), 1u);
  EXPECT_EQ(H.maxValue(), kPerThread * kThreads);

  MetricsSnapshot S = Metrics::snapshot();
  const support::HistogramSample *Sample = S.histogram("test/cross_shard_hist");
  ASSERT_NE(Sample, nullptr);
  EXPECT_EQ(Sample->Count, kCount);
  EXPECT_EQ(Sample->Sum, kSum);
  EXPECT_EQ(Sample->Min, 1u);
  EXPECT_EQ(Sample->Max, kPerThread * kThreads);
  uint64_t BucketTotal = 0;
  for (uint64_t B : Sample->Buckets)
    BucketTotal += B;
  EXPECT_EQ(BucketTotal, kCount);

  // Empty histograms export min/max 0, not the UINT64_MAX init sentinel.
  support::Histogram &Empty = Metrics::histogram("test/empty_hist");
  EXPECT_EQ(Empty.minValue(), 0u);
  EXPECT_EQ(Empty.maxValue(), 0u);
}

// 64+ threads live at once: each owns a distinct thread slot, so each
// writes only its own counter and histogram cells, and the merged totals
// are exact.
TEST_F(MetricsTest, ManyLiveThreadsOwnDistinctSlots) {
  support::Counter &C = Metrics::counter("test/slots/counter");
  support::Histogram &H = Metrics::histogram("test/slots/hist");
  constexpr unsigned kThreads = 72;
  constexpr uint64_t kPerThread = 1000;
  static_assert(kThreads > 4 * support::kInlineThreadSlots);
  std::vector<unsigned> Slots(kThreads);
  std::barrier Live(kThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < kThreads; ++T)
    Threads.emplace_back([&, T] {
      Slots[T] = support::threadSlot();
      Live.arrive_and_wait(); // every writer is live from here on
      for (uint64_t I = 1; I <= kPerThread; ++I) {
        C.add(2);
        H.record(I * (T + 1)); // thread T records T+1, ..., 1000(T+1)
      }
      Live.arrive_and_wait();
    });
  for (std::thread &T : Threads)
    T.join();

  std::sort(Slots.begin(), Slots.end());
  EXPECT_EQ(std::adjacent_find(Slots.begin(), Slots.end()), Slots.end())
      << "two live threads shared a slot";
  EXPECT_LT(Slots.back(), support::kMaxThreadSlots);
  EXPECT_EQ(C.value(), 2 * kThreads * kPerThread);
  EXPECT_EQ(H.count(), kThreads * kPerThread);
  EXPECT_EQ(H.sum(),
            (kThreads * (kThreads + 1) / 2) * (kPerThread * (kPerThread + 1) / 2));
  EXPECT_EQ(H.minValue(), 1u);
  EXPECT_EQ(H.maxValue(), kPerThread * kThreads);
}

// Thread churn: short threads count only from a thread_local destructor,
// which runs before their slot is returned, so the count lands in the
// thread's own cell. Every count lands exactly once, and a new thread takes
// the lowest free slot, so slots stay below the peak number of live
// threads however many threads have come and gone.
std::atomic<unsigned> SlotChangedAtExit{0};
struct CountAtExit {
  support::Counter &C = Metrics::counter("test/churn/counter");
  support::Histogram &H = Metrics::histogram("test/churn/hist");
  uint64_t Value = 0;
  unsigned Slot = 0;
  ~CountAtExit() {
    C.add();
    H.record(Value);
    if (support::threadSlot() != Slot)
      SlotChangedAtExit.fetch_add(1);
  }
};
thread_local CountAtExit AtExit;

TEST_F(MetricsTest, ThreadChurnCountsFromThreadLocalDestructors) {
  constexpr unsigned kSpawners = 8;
  constexpr unsigned kPerSpawner = 250;
  // main, the spawners, and one short thread per spawner.
  constexpr unsigned kPeakLive = 1 + 2 * kSpawners;
  std::atomic<unsigned> MaxSlot{0};
  std::vector<std::thread> Spawners;
  for (unsigned S = 0; S < kSpawners; ++S)
    Spawners.emplace_back([&, S] {
      for (unsigned I = 0; I < kPerSpawner; ++I)
        std::thread([&, V = uint64_t(S) * kPerSpawner + I + 1] {
          unsigned Slot = support::threadSlot();
          AtExit.Value = V;
          AtExit.Slot = Slot;
          unsigned Seen = MaxSlot.load();
          while (Slot > Seen && !MaxSlot.compare_exchange_weak(Seen, Slot))
            ;
        }).join();
    });
  for (std::thread &T : Spawners)
    T.join();

  constexpr uint64_t kTotal = uint64_t(kSpawners) * kPerSpawner;
  EXPECT_EQ(Metrics::counter("test/churn/counter").value(), kTotal);
  support::Histogram &H = Metrics::histogram("test/churn/hist");
  EXPECT_EQ(H.count(), kTotal);
  EXPECT_EQ(H.sum(), kTotal * (kTotal + 1) / 2);
  EXPECT_EQ(H.minValue(), 1u);
  EXPECT_EQ(H.maxValue(), kTotal);
  EXPECT_LT(MaxSlot.load(), kPeakLive);
  EXPECT_EQ(SlotChangedAtExit.load(), 0u);
}

TEST_F(MetricsTest, HistogramPercentileUpperBound) {
  support::Histogram &H = Metrics::histogram("test/percentile_hist");
  for (int I = 0; I < 99; ++I)
    H.record(100); // bucket 7, upper bound 128
  H.record(1 << 20); // one outlier in bucket 21

  MetricsSnapshot S = Metrics::snapshot();
  const support::HistogramSample *Sample =
      S.histogram("test/percentile_hist");
  ASSERT_NE(Sample, nullptr);
  EXPECT_EQ(Sample->percentileUpperBound(50), 128u);
  EXPECT_EQ(Sample->percentileUpperBound(99), 128u);
  EXPECT_EQ(Sample->percentileUpperBound(100), uint64_t(1) << 21);
}

// ==== exporters ===========================================================

TEST_F(MetricsTest, JsonExportIsStructurallyValid) {
  Metrics::counter("test/json \"quoted\"/counter").add(7);
  Metrics::gauge("test/json/gauge").set(-42);
  Metrics::histogram("test/json/hist").record(300);
  FaultEvent E;
  E.Kind = "test \"fault\"\nwith newline";
  E.HasAddress = true;
  E.Address = 0xdead;
  E.Backtrace = "a <- b";
  Metrics::faultRing().record(E);

  std::string Json = Metrics::snapshot().toJson();
  EXPECT_TRUE(jsonStructurallyValid(Json)) << Json;
  EXPECT_NE(Json.find("\"counters\""), std::string::npos);
  EXPECT_NE(Json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(Json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(Json.find("\"faults\""), std::string::npos);
  EXPECT_NE(Json.find("-42"), std::string::npos);
  // Each histogram carries the latency summary consumers read: min/max and
  // the p50/p99/p999 bucket upper bounds.
  EXPECT_NE(Json.find("\"min\""), std::string::npos);
  EXPECT_NE(Json.find("\"max\""), std::string::npos);
  EXPECT_NE(Json.find("\"p50_le\""), std::string::npos);
  EXPECT_NE(Json.find("\"p99_le\""), std::string::npos);
  EXPECT_NE(Json.find("\"p999_le\""), std::string::npos);
}

TEST_F(MetricsTest, PrometheusTextExpositionWellFormed) {
  Metrics::counter("test/prom/counter").add(3);
  Metrics::gauge("test/prom/gauge").set(11);
  support::Histogram &H = Metrics::histogram("test/prom/hist");
  H.record(5);
  H.record(500);

  std::string Text = Metrics::snapshot().toPrometheusText();
  // Sanitised, prefixed names; no '/' may survive into a metric name.
  EXPECT_NE(Text.find("# TYPE m4j_test_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(Text.find("m4j_test_prom_counter 3"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE m4j_test_prom_gauge gauge"),
            std::string::npos);
  EXPECT_NE(Text.find("# TYPE m4j_test_prom_hist histogram"),
            std::string::npos);
  EXPECT_NE(Text.find("m4j_test_prom_hist_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(Text.find("m4j_test_prom_hist_count 2"), std::string::npos);

  // Every non-comment line is "name[{labels}] value"; names match
  // [a-zA-Z_:][a-zA-Z0-9_:]*.
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    std::string Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Space = Line.rfind(' ');
    ASSERT_NE(Space, std::string::npos) << Line;
    std::string Name = Line.substr(0, Space);
    size_t Brace = Name.find('{');
    if (Brace != std::string::npos)
      Name = Name.substr(0, Brace);
    for (char C : Name)
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
                  C == ':')
          << Line;
  }
}

// ==== fault ring ==========================================================

TEST_F(MetricsTest, FaultRingWraparoundKeepsNewestOldestFirst) {
  FaultRing &Ring = Metrics::faultRing();
  constexpr uint64_t kTotal = FaultRing::kCapacity + 17;
  for (uint64_t I = 0; I < kTotal; ++I) {
    FaultEvent E;
    E.Kind = "wrap";
    E.Address = I;
    E.HasAddress = true;
    Ring.record(E);
  }
  EXPECT_EQ(Ring.totalRecorded(), kTotal);

  std::vector<FaultEvent> Events = Ring.snapshot();
  ASSERT_EQ(Events.size(), FaultRing::kCapacity);
  // Oldest retained is kTotal - kCapacity; sequence stamps are dense.
  for (size_t I = 0; I < Events.size(); ++I) {
    EXPECT_EQ(Events[I].Sequence, kTotal - FaultRing::kCapacity + I);
    EXPECT_EQ(Events[I].Address, Events[I].Sequence);
    EXPECT_GT(Events[I].TimestampNanos, 0u);
  }
}

TEST_F(MetricsTest, FaultRingConcurrentRecordsKeepDenseSequences) {
  FaultRing &Ring = Metrics::faultRing();
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 500;
  std::vector<std::thread> Threads;
  for (int T = 0; T < kThreads; ++T)
    Threads.emplace_back([&Ring] {
      for (uint64_t I = 0; I < kPerThread; ++I) {
        FaultEvent E;
        E.Kind = "mt";
        Ring.record(E);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Ring.totalRecorded(), kThreads * kPerThread);
  std::vector<FaultEvent> Events = Ring.snapshot();
  ASSERT_EQ(Events.size(), FaultRing::kCapacity);
  for (size_t I = 1; I < Events.size(); ++I)
    EXPECT_EQ(Events[I].Sequence, Events[I - 1].Sequence + 1);
}

// A derived counter whose source resetAll cannot zero rebaselines through
// its reset callback; one without a callback keeps reading its source.
std::atomic<uint64_t> DerivedSource{0};
std::atomic<uint64_t> DerivedBaseline{0};

TEST_F(MetricsTest, ResetAllCallsDerivedResetCallbacks) {
  // The sources are globals: start each run (including --gtest_repeat
  // iterations) from the same state.
  DerivedSource.store(0);
  DerivedBaseline.store(0);
  Metrics::registerDerived(
      "test/derived/rebased",
      +[] { return DerivedSource.load() - DerivedBaseline.load(); },
      +[] { DerivedBaseline.store(DerivedSource.load()); });
  Metrics::registerDerived("test/derived/mirror",
                           +[] { return DerivedSource.load(); });
  DerivedSource.store(7);
  EXPECT_EQ(Metrics::snapshot().counterValue("test/derived/rebased"), 7u);

  Metrics::resetAll();
  MetricsSnapshot S = Metrics::snapshot();
  EXPECT_EQ(S.counterValue("test/derived/rebased", 99), 0u);
  EXPECT_EQ(S.counterValue("test/derived/mirror"), 7u);
  DerivedSource.store(10);
  EXPECT_EQ(Metrics::snapshot().counterValue("test/derived/rebased"), 3u);
}

TEST_F(MetricsTest, ResetAllZeroesEverything) {
  Metrics::counter("test/reset/counter").add(5);
  Metrics::gauge("test/reset/gauge").set(5);
  Metrics::histogram("test/reset/hist").record(5);
  FaultEvent E;
  Metrics::faultRing().record(E);

  Metrics::resetAll();
  MetricsSnapshot S = Metrics::snapshot();
  EXPECT_EQ(S.counterValue("test/reset/counter"), 0u);
  EXPECT_EQ(S.gaugeValue("test/reset/gauge"), 0);
  const support::HistogramSample *Sample = S.histogram("test/reset/hist");
  ASSERT_NE(Sample, nullptr);
  EXPECT_EQ(Sample->Count, 0u);
  EXPECT_EQ(S.FaultsTotal, 0u);
  EXPECT_TRUE(S.Faults.empty());
}

} // namespace
