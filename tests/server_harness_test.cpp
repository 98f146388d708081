//===- server_harness_test.cpp - Tenant server harness tests --------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Covers the tenant-scale server driver (src/server): per-tenant metric
// namespace isolation, snapshot exactness across the sharded registry under
// real multi-threaded load, JSONL stream well-formedness, GC pause export,
// open-loop pacing, and rogue-request fault attribution per scheme.
//
//===----------------------------------------------------------------------===//

#include "mte4jni/server/Server.h"

#include "mte4jni/support/StringUtils.h"
#include "mte4jni/workloads/Workload.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

namespace {

using namespace mte4jni;
using server::RequestMix;
using server::ServerConfig;
using server::ServerResult;
using server::TenantSummary;

class ServerHarnessTest : public ::testing::Test {
protected:
  void SetUp() override { support::Metrics::resetAll(); }
  void TearDown() override { support::Metrics::resetAll(); }
};

ServerConfig quickConfig() {
  ServerConfig C;
  C.NumTenants = 2;
  C.NumWorkers = 4;
  C.DurationMillis = 150;
  C.Seed = 7;
  return C;
}

ServerResult runScheme(api::Scheme Scheme, const ServerConfig &C,
                       bool BackgroundGc = true) {
  api::SessionConfig SC;
  SC.Protection = Scheme;
  SC.BackgroundGc = BackgroundGc;
  SC.HeapBytes = 32 << 20;
  api::Session S(SC);
  return server::runServer(S, C);
}

// ==== per-tenant namespace isolation =======================================

// Every request a tenant's workers serve lands in that tenant's namespace
// and nowhere else; the global aggregate equals the sum over tenants. This
// is the accounting invariant everything else (billing, SLO attribution)
// rests on — and it exercises the sharded registry under >shard-count
// thread churn because each worker records from its own thread.
TEST_F(ServerHarnessTest, TenantNamespacesPartitionTheGlobalCounts) {
  ServerConfig C = quickConfig();
  C.NumTenants = 3;
  C.NumWorkers = 6;
  ServerResult R = runScheme(api::Scheme::NoProtection, C);

  ASSERT_EQ(R.Tenants.size(), 3u);
  EXPECT_GT(R.Requests, 0u);

  uint64_t SumRequests = 0;
  for (const TenantSummary &T : R.Tenants) {
    EXPECT_GT(T.Requests, 0u) << "tenant " << T.Tenant << " starved";
    SumRequests += T.Requests;
  }
  EXPECT_EQ(SumRequests, R.Requests);

  // The per-tenant histograms partition the global one.
  support::MetricsSnapshot Snap = support::Metrics::snapshot();
  const support::HistogramSample *Global =
      Snap.histogram("server/request_nanos");
  ASSERT_NE(Global, nullptr);
  uint64_t SumHistCounts = 0;
  for (unsigned T = 0; T < 3; ++T) {
    const support::HistogramSample *H = Snap.histogram(
        support::format("server/tenant%u/request_nanos", T));
    ASSERT_NE(H, nullptr);
    SumHistCounts += H->Count;
  }
  EXPECT_EQ(SumHistCounts, Global->Count);
  EXPECT_EQ(Global->Count, R.Requests);

  // No stray tenant namespaces beyond the configured count.
  EXPECT_EQ(Snap.counterValue("server/tenant3/requests", 1234u), 1234u);
}

// ==== snapshot exactness under load ========================================

// A snapshot taken after the workers quiesce must be EXACT — the registry's
// per-thread cells may relax intra-run visibility but not lose updates.
// More workers than inline thread slots puts some cells in chunks.
TEST_F(ServerHarnessTest, QuiescentSnapshotIsExactAcrossShards) {
  ServerConfig C = quickConfig();
  C.NumTenants = 4;
  C.NumWorkers = 20; // > kInlineThreadSlots: chunked cells in play
  C.DurationMillis = 120;
  ServerResult R = runScheme(api::Scheme::NoProtection, C,
                             /*BackgroundGc=*/false);

  support::MetricsSnapshot Snap = support::Metrics::snapshot();
  EXPECT_EQ(Snap.counterValue("server/requests"), R.Requests);
  EXPECT_EQ(Snap.counterValue("server/jni_crossings"), R.JniCrossings);
  uint64_t Sum = 0;
  for (unsigned T = 0; T < 4; ++T)
    Sum += Snap.counterValue(support::format("server/tenant%u/requests", T));
  EXPECT_EQ(Sum, R.Requests);
}

// ==== JSONL stream =========================================================

TEST_F(ServerHarnessTest, StreamProducesOneValidJsonRecordPerLine) {
  std::string Path = ::testing::TempDir() + "server_stream_test.jsonl";
  std::remove(Path.c_str());

  ServerConfig C = quickConfig();
  C.DurationMillis = 300;
  C.StreamPath = Path;
  C.StreamIntervalMillis = 60;
  C.StreamLabel = "unit";
  ServerResult R = runScheme(api::Scheme::NoProtection, C);

  // ~300ms / 60ms interval plus the closing record.
  EXPECT_GE(R.StreamedSnapshots, 2u);

  std::FILE *F = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(F, nullptr);
  std::string Text;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  std::fclose(F);

  uint64_t Lines = 0;
  size_t Start = 0;
  while (Start < Text.size()) {
    size_t Nl = Text.find('\n', Start);
    ASSERT_NE(Nl, std::string::npos) << "stream must end with a newline";
    std::string Line = Text.substr(Start, Nl - Start);
    // One self-contained object per line: no raw newlines inside, brace
    // balanced, and carrying the expected wrapper fields.
    EXPECT_EQ(Line.front(), '{');
    EXPECT_EQ(Line.back(), '}');
    EXPECT_NE(Line.find("\"seq\": "), std::string::npos);
    EXPECT_NE(Line.find("\"label\": \"unit\""), std::string::npos);
    EXPECT_NE(Line.find("\"metrics\": {"), std::string::npos);
    EXPECT_NE(Line.find("server/requests"), std::string::npos);
    int Depth = 0;
    bool InString = false, Escaped = false;
    for (char Ch : Line) {
      if (Escaped) {
        Escaped = false;
        continue;
      }
      if (Ch == '\\')
        Escaped = true;
      else if (Ch == '"')
        InString = !InString;
      else if (!InString && Ch == '{')
        ++Depth;
      else if (!InString && Ch == '}')
        --Depth;
    }
    EXPECT_EQ(Depth, 0) << "unbalanced braces in stream line";
    ++Lines;
    Start = Nl + 1;
  }
  EXPECT_EQ(Lines, R.StreamedSnapshots);
  std::remove(Path.c_str());
}

// ==== GC pause export ======================================================

// With background GC on and allocating requests flowing, the run must leave
// a populated rt/gc/pause_nanos histogram — the signal the server report
// uses to attribute p999 spikes to stop-the-world windows.
TEST_F(ServerHarnessTest, GcPausesLandInPauseHistogram) {
  ServerConfig C = quickConfig();
  C.DurationMillis = 250;
  ServerResult R = runScheme(api::Scheme::Mte4JniSync, C);
  EXPECT_GT(R.Requests, 0u);

  support::MetricsSnapshot Snap = support::Metrics::snapshot();
  const support::HistogramSample *Pause =
      Snap.histogram("rt/gc/pause_nanos");
  ASSERT_NE(Pause, nullptr);
  EXPECT_GT(Pause->Count, 0u);
  // A pause is a superset of its phases: never zero-length, and bounded by
  // the run duration.
  EXPECT_GT(Pause->Min, 0u);
  EXPECT_LT(Pause->Max, uint64_t(60) * 1'000'000'000);
}

// ==== open-loop pacing =====================================================

// At a target rate far below capacity, the server must serve close to
// rate*duration requests (not run closed-loop at full tilt), proving the
// pacer actually waits for scheduled arrivals.
TEST_F(ServerHarnessTest, OpenLoopPacingHoldsTheTargetRate) {
  ServerConfig C = quickConfig();
  C.NumWorkers = 2;
  C.NumTenants = 2;
  C.DurationMillis = 500;
  C.TargetRatePerSec = 400; // closed-loop would serve tens of thousands
  ServerResult R = runScheme(api::Scheme::NoProtection, C,
                             /*BackgroundGc=*/false);
  // Nominal: 200 requests in 0.5s. Generous bounds absorb scheduler noise
  // on loaded CI hosts.
  EXPECT_GT(R.Requests, 60u);
  EXPECT_LT(R.Requests, 500u);
}

// ==== rogue-request fault attribution ======================================

// Rogue near-OOB reads must fault under MTE4JNI, be attributed to the
// tenants that issued them, and match the MTE system's own fault log;
// under no protection the same stream is silent (that is the paper's
// point).
TEST_F(ServerHarnessTest, RogueReadsFaultUnderMteAndAreAttributed) {
  ServerConfig C = quickConfig();
  C.DurationMillis = 250;
  C.Mix.Rogue = 10; // ~10% of requests go out of bounds

  api::SessionConfig SC;
  SC.Protection = api::Scheme::Mte4JniSync;
  SC.BackgroundGc = true;
  SC.HeapBytes = 32 << 20;
  api::Session S(SC);
  ServerResult R = server::runServer(S, C);

  EXPECT_GT(R.Faults, 0u);
  uint64_t TenantFaultSum = 0;
  for (const TenantSummary &T : R.Tenants)
    TenantFaultSum += T.Faults;
  EXPECT_EQ(TenantFaultSum, R.Faults);
  // Every fault the hook attributed is in the MTE system's log, and
  // vice versa (the hook is the only counter, the log the ground truth).
  EXPECT_EQ(S.faults().totalCount(), R.Faults);
}

TEST_F(ServerHarnessTest, RogueReadsAreSilentWithoutProtection) {
  ServerConfig C = quickConfig();
  C.Mix.Rogue = 10;
  ServerResult R = runScheme(api::Scheme::NoProtection, C);
  EXPECT_GT(R.Requests, 0u);
  EXPECT_EQ(R.Faults, 0u);
}

// Checksum invariance: the HTML parse profile must produce scheme-
// independent results like every other workload (schemes detect, never
// alter).
TEST_F(ServerHarnessTest, HtmlStringsProfileIsRegisteredAndDeterministic) {
  std::unique_ptr<workloads::Workload> W =
      workloads::makeWorkload("HTML5 DOM Strings");
  ASSERT_NE(W, nullptr);
  EXPECT_TRUE(W->isJniIntensive());

  uint64_t Sums[2];
  for (int Round = 0; Round < 2; ++Round) {
    api::SessionConfig SC;
    SC.Protection = Round == 0 ? api::Scheme::NoProtection
                               : api::Scheme::Mte4JniSync;
    api::Session S(SC);
    api::ScopedAttach Main(S, "main");
    rt::HandleScope Scope(S.runtime());
    workloads::WorkloadContext Ctx{S, Main.env(), Main.thread(), Scope, 42};
    std::unique_ptr<workloads::Workload> Fresh =
        workloads::makeWorkload("HTML5 DOM Strings");
    Fresh->prepare(Ctx);
    Sums[Round] = Fresh->run(Ctx);
  }
  EXPECT_EQ(Sums[0], Sums[1]);
}

} // namespace
