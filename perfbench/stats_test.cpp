//===- stats_test.cpp - Tests of the benchmark's own arithmetic -----------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Percentiles on known samples, self time on synthetic span trees,
// error_rate on a synthetic tally, and the planted-call schedule the
// benchmark's correctness check relies on.
//
//===----------------------------------------------------------------------===//

#include "Clients.h"
#include "Stats.h"
#include "Trace.h"

#include "mte4jni/support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

using namespace perfbench;

namespace {

/// Exact nearest-rank percentile of a sorted sample.
double nearestRank(const std::vector<uint64_t> &Sorted, double P) {
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * Sorted.size()));
  Rank = std::clamp<size_t>(Rank, 1, Sorted.size());
  return double(Sorted[Rank - 1]);
}

void expectWithinOnePercent(const std::vector<uint64_t> &Values) {
  LatencyHistogram H;
  for (uint64_t V : Values)
    H.record(V);
  std::vector<uint64_t> Sorted = Values;
  std::sort(Sorted.begin(), Sorted.end());
  for (double P : {1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    double Exact = nearestRank(Sorted, P);
    double Got = H.percentile(P);
    EXPECT_LE(std::fabs(Got - Exact), 0.01 * Exact) << "p" << P;
  }
}

} // namespace

TEST(LatencyHistogram, BucketsTileTheRangeAtUnderOnePercentWidth) {
  uint64_t Expected = 0;
  for (unsigned B = 0; B + 1 < LatencyHistogram::kBuckets; ++B) {
    ASSERT_EQ(LatencyHistogram::bucketLow(B), Expected) << B;
    ASSERT_EQ(LatencyHistogram::bucketOf(Expected), B);
    uint64_t Width = LatencyHistogram::bucketWidth(B);
    ASSERT_EQ(LatencyHistogram::bucketOf(Expected + Width - 1), B);
    if (Width > 1) { // a value placed inside is within a width of any
      ASSERT_LE(double(Width) / double(Expected), 0.01) << B;
    }
    Expected += Width;
  }
  EXPECT_EQ(LatencyHistogram::bucketOf(UINT64_MAX),
            LatencyHistogram::kBuckets - 1);
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  LatencyHistogram H;
  for (uint64_t V = 1; V <= 100; ++V)
    H.record(V);
  EXPECT_EQ(H.percentile(50), 50.0);
  EXPECT_EQ(H.percentile(99), 99.0);
  EXPECT_EQ(H.percentile(100), 100.0);
  EXPECT_EQ(H.count(), 100u);
  EXPECT_EQ(H.sum(), 5050u);
}

TEST(LatencyHistogram, UniformSampleWithinOnePercent) {
  std::vector<uint64_t> Values;
  for (uint64_t V = 1; V <= 100000; ++V)
    Values.push_back(V * 7);
  expectWithinOnePercent(Values);
}

TEST(LatencyHistogram, HeavyTailedSampleWithinOnePercent) {
  // Log-uniform over 100 ns .. 10 ms, like a mix of fast calls and pauses.
  mte4jni::support::Xoshiro256 Rng(42);
  std::vector<uint64_t> Values;
  for (unsigned I = 0; I < 50000; ++I)
    Values.push_back(static_cast<uint64_t>(
        100.0 * std::pow(10.0, 5.0 * Rng.nextDouble())));
  expectWithinOnePercent(Values);
}

TEST(LatencyHistogram, MergeEqualsRecordingEverything) {
  LatencyHistogram A, B, All;
  for (uint64_t V = 1; V < 5000; V += 3) {
    (V % 2 ? A : B).record(V * 11);
    All.record(V * 11);
  }
  A.merge(B);
  EXPECT_EQ(A.count(), All.count());
  EXPECT_EQ(A.sum(), All.sum());
  for (double P : {10.0, 50.0, 99.0})
    EXPECT_EQ(A.percentile(P), All.percentile(P));
  EXPECT_EQ(LatencyHistogram().percentile(50), 0.0);
}

TEST(SpanTracer, SelfTimesOfATiledCallSumToItsDuration) {
  SpanTracer Tr(/*SampleEvery=*/1, /*MaxRaw=*/64);
  Tr.beginCall(0);
  Tr.begin(kSpanCall, 0);
  Tr.begin(kSpanTrampolineEntry, 0);
  Tr.end(10);
  Tr.begin(kSpanNativeBody, 10);
  Tr.begin(kSpanPinAcquire, 20);
  Tr.end(30);
  Tr.begin(kSpanCheckRange, 30);
  Tr.end(70, /*Units=*/4096);
  Tr.begin(kSpanPinRelease, 70);
  Tr.end(75);
  Tr.end(90);
  Tr.begin(kSpanTrampolineExit, 90);
  Tr.end(100);
  Tr.end(100);
  EXPECT_EQ(Tr.depth(), 0u);

  EXPECT_EQ(Tr.stats(kSpanCall).TotalNanos, 100u);
  EXPECT_EQ(Tr.stats(kSpanCall).SelfNanos, 0u);
  EXPECT_EQ(Tr.stats(kSpanTrampolineEntry).SelfNanos, 10u);
  EXPECT_EQ(Tr.stats(kSpanNativeBody).TotalNanos, 80u);
  EXPECT_EQ(Tr.stats(kSpanNativeBody).SelfNanos, 25u);
  EXPECT_EQ(Tr.stats(kSpanPinAcquire).SelfNanos, 10u);
  EXPECT_EQ(Tr.stats(kSpanCheckRange).SelfNanos, 40u);
  EXPECT_EQ(Tr.stats(kSpanCheckRange).Units, 4096u);
  EXPECT_EQ(Tr.stats(kSpanPinRelease).SelfNanos, 5u);
  EXPECT_EQ(Tr.stats(kSpanTrampolineExit).SelfNanos, 10u);

  uint64_t SelfSum = 0;
  for (unsigned I = 0; I < kNumSpans; ++I)
    SelfSum += Tr.stats(static_cast<SpanId>(I)).SelfNanos;
  EXPECT_EQ(SelfSum, 100u);

  // Raw spans name their parents: the check's parent is the body, whose
  // parent is the call, whose parent is none.
  std::map<SpanId, RawSpan> ById;
  for (const RawSpan &S : Tr.raw())
    ById[S.Id] = S;
  ASSERT_EQ(Tr.raw().size(), 7u);
  EXPECT_EQ(ById[kSpanCall].Parent, 0u);
  EXPECT_EQ(ById[kSpanNativeBody].Parent, ById[kSpanCall].Seq);
  EXPECT_EQ(ById[kSpanCheckRange].Parent, ById[kSpanNativeBody].Seq);
  EXPECT_EQ(ById[kSpanCheckRange].StartNanos, 30u);
  EXPECT_EQ(ById[kSpanCheckRange].EndNanos, 70u);
}

TEST(SpanTracer, SelfTimeSubtractsOnlyDirectChildren) {
  SpanTracer Tr(1, 64);
  Tr.beginCall(7);
  Tr.begin(kSpanCall, 0);           // [0, 50]
  Tr.begin(kSpanNativeBody, 5);     //   [5, 45]
  Tr.begin(kSpanPinAcquire, 10);    //     [10, 20]
  Tr.end(20);
  Tr.begin(kSpanCheckLoad, 20);     //     [20, 40]
  Tr.begin(kSpanHeapAlloc, 25);     //       [25, 30]
  Tr.end(30);
  Tr.end(40, 100);
  Tr.end(45);
  Tr.end(50);
  EXPECT_EQ(Tr.stats(kSpanCall).SelfNanos, 10u);
  EXPECT_EQ(Tr.stats(kSpanNativeBody).SelfNanos, 10u);
  EXPECT_EQ(Tr.stats(kSpanPinAcquire).SelfNanos, 10u);
  EXPECT_EQ(Tr.stats(kSpanCheckLoad).SelfNanos, 15u);
  EXPECT_EQ(Tr.stats(kSpanHeapAlloc).SelfNanos, 5u);
  for (const RawSpan &S : Tr.raw())
    EXPECT_EQ(S.CallId, 7u);
}

TEST(SpanTracer, KeepsRawSpansOnlyForSampledCallsUpToTheCap) {
  SpanTracer Tr(/*SampleEvery=*/4, /*MaxRaw=*/3);
  for (uint64_t Call = 0; Call < 16; ++Call) {
    Tr.beginCall(Call);
    Tr.begin(kSpanCall, Call * 10);
    Tr.end(Call * 10 + 5);
  }
  EXPECT_EQ(Tr.stats(kSpanCall).Count, 16u);
  ASSERT_EQ(Tr.raw().size(), 3u);
  EXPECT_EQ(Tr.raw()[0].CallId, 0u);
  EXPECT_EQ(Tr.raw()[1].CallId, 4u);
  EXPECT_EQ(Tr.raw()[2].CallId, 8u);
}

TEST(Tally, ErrorRateCountsFailedBenignCallsOnceAndMissedPlants) {
  Tally T;
  for (unsigned I = 0; I < 990; ++I)
    T.benign(/*ChecksumOk=*/true, /*Faults=*/0, /*PendingException=*/false);
  T.benign(false, 0, false); // bad checksum
  T.benign(true, 2, false);  // two false faults in one call
  T.benign(false, 1, true);  // all three at once: still one failed call
  T.planted(Plant::OobRead, 1);
  T.planted(Plant::OobRead, 1);
  T.planted(Plant::OobWrite, 1);
  T.planted(Plant::UseAfterRelease, 0);
  T.planted(Plant::UseAfterRelease, 0);
  T.planted(Plant::UseAfterRelease, 1);
  T.planted(Plant::OobRead, 0);

  EXPECT_EQ(T.Attempted, 1000u);
  EXPECT_EQ(T.BenignFailed, 3u);
  EXPECT_EQ(T.BadChecksums, 2u);
  EXPECT_EQ(T.FalseFaults, 3u);
  EXPECT_EQ(T.PendingExceptions, 1u);
  EXPECT_EQ(T.Planted[0], 3u);
  EXPECT_EQ(T.Missed[0], 1u);
  EXPECT_EQ(T.Missed[2], 2u);
  EXPECT_EQ(T.missed(), 3u);
  EXPECT_DOUBLE_EQ(T.errorRate(), 6.0 / 1000.0);

  Tally Sum;
  Sum.merge(T);
  Sum.merge(T);
  EXPECT_EQ(Sum.Attempted, 2000u);
  EXPECT_DOUBLE_EQ(Sum.errorRate(), T.errorRate());
  EXPECT_EQ(Tally().errorRate(), 0.0);
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(quantile({5, 1, 4, 2, 3}, 0.25), 2.0);
  EXPECT_EQ(quantile({5, 1, 4, 2, 3}, 0.75), 4.0);
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.25), 1.75);
  EXPECT_EQ(quantile({7}, 0.25), 7.0);
  EXPECT_EQ(quantile({1, 9}, 0.0), 1.0);
  EXPECT_EQ(quantile({1, 9}, 1.0), 9.0);
}

TEST(CallSequence, PlantsOneAccessPerRoundInTurnAndKeepsTheMixExact) {
  for (const WorkloadSpec &Spec : allWorkloads()) {
    const uint64_t Rounds = 6 * Spec.Plants.size();
    std::vector<uint64_t> Planted(kNumPlants), Kinds(kNumKinds);
    CallSequence Seq(Spec, 123);
    for (uint64_t R = 0; R < Rounds; ++R) {
      unsigned InRound = 0;
      for (uint64_t I = 0; I < kPlantEvery; ++I) {
        Call C = Seq.next();
        if (C.IsPlant) {
          ++InRound;
          ++Planted[static_cast<unsigned>(C.P)];
          EXPECT_EQ(C.P, Spec.Plants[R % Spec.Plants.size()]);
        } else {
          ++Kinds[static_cast<unsigned>(C.Kind)];
          EXPECT_LT(C.Input, numInputs(C.Kind));
        }
      }
      EXPECT_EQ(InRound, 1u) << Spec.Name << " round " << R;
    }
    for (Plant P : Spec.Plants)
      EXPECT_EQ(Planted[static_cast<unsigned>(P)], 6u) << Spec.Name;
    // Benign kinds come in shuffled blocks of the exact weights, so each
    // kind's count is its share of the benign calls to within one block.
    unsigned BlockSize = 0;
    for (const auto &[Kind, Weight] : Spec.Mix)
      BlockSize += Weight;
    const double Benign = double(Rounds * (kPlantEvery - 1));
    for (const auto &[Kind, Weight] : Spec.Mix)
      EXPECT_NEAR(double(Kinds[static_cast<unsigned>(Kind)]),
                  Benign * Weight / BlockSize, Weight)
          << Spec.Name;

    // The same seed gives the same calls.
    CallSequence A(Spec, 9), B(Spec, 9);
    for (unsigned I = 0; I < 5000; ++I) {
      Call X = A.next(), Y = B.next();
      ASSERT_EQ(X.IsPlant, Y.IsPlant);
      ASSERT_EQ(X.Kind, Y.Kind);
      ASSERT_EQ(X.Input, Y.Input);
    }
  }
}
