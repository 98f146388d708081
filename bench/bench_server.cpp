//===- bench_server.cpp - Tenant-scale server harness benchmark -----------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Runs the multi-tenant request server (src/server) under each protection
// scheme and reports sustained throughput plus coordinated-omission-free
// latency percentiles, per tenant and global. This is the serving-side
// complement of the paper's batch Geekbench runs (§5.4): instead of asking
// "how much slower is one clone", it asks "what do MY tenants' p99/p999
// look like under sustained mixed JNI traffic, and who pays for the GC
// pauses and tag-check faults".
//
// The request mix is Table-1-shaped (array pins, string criticals, region
// copies) plus a string-critical-heavy HTML parse profile, with an
// optional trickle of rogue near-OOB reads (--rogue-permille) modelling a
// buggy native library sharing the process.
//
// Each scheme runs in three alternating rounds, and the report holds
// each scheme's per-round throughput and the medians of every row.
//
// With --stream=out.jsonl one metrics snapshot per interval is appended
// while the server runs (all schemes into one file, labelled); inspect
// live with `m4jstat watch out.jsonl` or after the fact with
// `m4jstat diff --last out.jsonl`.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "mte4jni/server/Server.h"

#include <cstdio>
#include <iterator>
#include <vector>

using namespace mte4jni;
using namespace mte4jni::bench;

namespace {

struct SchemeRun {
  api::Scheme Scheme;
  const char *Name; // row prefix; matches api::schemeName spelling
};

void addSchemeRows(BenchReport &Report, const char *Scheme,
                   const server::ServerResult &R) {
  std::string P = std::string(Scheme) + "/";
  Report.addRow(P + "requests_per_sec", R.RequestsPerSec, "req/s",
                R.Requests);
  Report.addRow(P + "crossings_per_sec", R.CrossingsPerSec, "crossings/s",
                R.JniCrossings);
  Report.addRow(P + "faults_per_sec", R.FaultsPerSec, "faults/s", R.Faults);
  Report.addRow(P + "late_arrivals", double(R.LateArrivals), "count",
                R.LateArrivals);
  Report.addRow(P + "mean_ns", R.MeanNanos, "ns");
  Report.addRow(P + "p50_ns", double(R.P50Nanos), "ns");
  Report.addRow(P + "p99_ns", double(R.P99Nanos), "ns");
  Report.addRow(P + "p999_ns", double(R.P999Nanos), "ns");
  for (const server::TenantSummary &T : R.Tenants) {
    std::string TP = P + support::format("tenant%u/", T.Tenant);
    Report.addRow(TP + "requests", double(T.Requests), "count", T.Requests);
    Report.addRow(TP + "faults", double(T.Faults), "count", T.Faults);
    Report.addRow(TP + "p50_ns", double(T.P50Nanos), "ns");
    Report.addRow(TP + "p99_ns", double(T.P99Nanos), "ns");
    Report.addRow(TP + "p999_ns", double(T.P999Nanos), "ns");
  }
}

/// The median of \p Field over \p Runs.
template <typename S, typename T>
T medianField(const std::vector<const S *> &Runs, T S::*Field) {
  support::SampleSet Values;
  for (const S *R : Runs)
    Values.add(double(R->*Field));
  return T(Values.median());
}

/// Field-wise median of one scheme's rounds: each rate, count and
/// percentile the report prints, global and per tenant, is the median of
/// its values over the rounds, so one slow host period moves none of
/// them.
server::ServerResult
medianResult(const std::vector<server::ServerResult> &Rounds) {
  using server::ServerResult;
  using server::TenantSummary;
  std::vector<const ServerResult *> Runs;
  for (const ServerResult &R : Rounds)
    Runs.push_back(&R);
  ServerResult M = Rounds.front();
  for (double ServerResult::*F :
       {&ServerResult::RequestsPerSec, &ServerResult::CrossingsPerSec,
        &ServerResult::FaultsPerSec, &ServerResult::MeanNanos})
    M.*F = medianField(Runs, F);
  for (uint64_t ServerResult::*F :
       {&ServerResult::Requests, &ServerResult::Faults,
        &ServerResult::JniCrossings, &ServerResult::LateArrivals,
        &ServerResult::P50Nanos, &ServerResult::P99Nanos,
        &ServerResult::P999Nanos})
    M.*F = medianField(Runs, F);
  for (size_t T = 0; T < M.Tenants.size(); ++T) {
    std::vector<const TenantSummary *> Tenant;
    for (const ServerResult &R : Rounds)
      Tenant.push_back(&R.Tenants[T]);
    for (uint64_t TenantSummary::*F :
         {&TenantSummary::Requests, &TenantSummary::Faults,
          &TenantSummary::P50Nanos, &TenantSummary::P99Nanos,
          &TenantSummary::P999Nanos})
      M.Tenants[T].*F = medianField(Tenant, F);
  }
  return M;
}

void printResultRow(const TablePrinter &Table, const std::string &Label,
                    const server::ServerResult &R) {
  Table.printRow({Label, support::format("%.0f", R.RequestsPerSec),
                  support::format("%.0f", R.CrossingsPerSec),
                  support::format("%.1f", R.FaultsPerSec),
                  support::format("%llu", (unsigned long long)R.P50Nanos),
                  support::format("%llu", (unsigned long long)R.P99Nanos),
                  support::format("%llu", (unsigned long long)R.P999Nanos),
                  support::format("%llu",
                                  (unsigned long long)R.LateArrivals)});
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Options = BenchOptions::parse(Argc, Argv);
  printBanner("tenant-scale JNI server: throughput + latency attribution",
              "serving-side extension of §5.4 (not a paper figure)",
              Options);

  server::ServerConfig Config;
  // Default: a modest smoke shape; --paper runs the tenant-scale shape the
  // checked-in BENCH_server.json uses.
  Config.NumTenants = Options.PaperScale ? 8 : 4;
  Config.NumWorkers = Options.PaperScale ? 64 : 8;
  Config.DurationMillis = Options.PaperScale ? 3000 : (Options.Quick ? 400 : 1000);
  if (Options.Threads)
    Config.NumWorkers = Options.Threads;
  Config.NumTenants = static_cast<unsigned>(
      Options.flagUnsigned("--tenants", Config.NumTenants));
  Config.DurationMillis =
      Options.flagUnsigned("--duration-ms", Config.DurationMillis);
  Config.TargetRatePerSec =
      double(Options.flagUnsigned("--rate", 0)); // 0 = closed loop
  Config.Seed = Options.Seed;

  // --rogue-permille=P: P in 1000 requests are rogue near-OOB reads.
  // Weights are scaled so the non-rogue mix keeps its internal ratios.
  uint64_t RoguePermille = Options.flagUnsigned("--rogue-permille", 0);
  if (RoguePermille > 1000)
    RoguePermille = 1000;
  unsigned Scale = static_cast<unsigned>(1000 - RoguePermille);
  Config.Mix.ArrayPin = 40 * Scale;
  Config.Mix.StringCritical = 25 * Scale;
  Config.Mix.RegionCopy = 20 * Scale;
  Config.Mix.HtmlParse = 15 * Scale;
  Config.Mix.Rogue = static_cast<unsigned>(100 * RoguePermille);

  std::string StreamPath = Options.flagValue("--stream");
  uint32_t StreamIntervalMillis = static_cast<uint32_t>(
      Options.flagUnsigned("--stream-interval-ms", 250));

  const SchemeRun Schemes[] = {
      {api::Scheme::NoProtection, "unprotected"},
      {api::Scheme::GuardedCopy, "guarded_copy"},
      {api::Scheme::Mte4JniSync, "mte4jni_sync"},
  };

  std::printf("\ntenants=%u workers=%u duration=%llums rate=%s "
              "rogue=%llu/1000%s%s\n\n",
              Config.NumTenants, Config.NumWorkers,
              static_cast<unsigned long long>(Config.DurationMillis),
              Config.TargetRatePerSec > 0
                  ? support::format("%.0f req/s", Config.TargetRatePerSec)
                        .c_str()
                  : "closed-loop",
              static_cast<unsigned long long>(RoguePermille),
              StreamPath.empty() ? "" : " stream=",
              StreamPath.c_str());

  TablePrinter Table({"scheme", "req/s", "xing/s", "faults/s", "p50 ns",
                      "p99 ns", "p999 ns", "late"},
                     {17, 12, 12, 10, 10, 10, 10, 8});
  Table.printHeader();

  // The schemes run in kRounds alternating rounds (forward, then
  // backward), so a slow host period skews one round of every scheme
  // rather than every round of one. An odd count ends on a forward
  // round, whose last phase is MTE4JNI-sync.
  constexpr unsigned kRounds = 3;
  constexpr size_t kNumSchemes = std::size(Schemes);
  std::vector<server::ServerResult> Results[kNumSchemes];
  BenchReport Report("server");
  for (unsigned Round = 0; Round < kRounds; ++Round) {
    for (size_t I = 0; I < kNumSchemes; ++I) {
      size_t K = Round % 2 == 0 ? I : kNumSchemes - 1 - I;
      const SchemeRun &SR = Schemes[K];
      // Per-phase counters from zero: the report's embedded metrics
      // snapshot (taken at write time) then describes the LAST phase —
      // an MTE4JNI one — including its rt/gc/pause_nanos histogram.
      support::Metrics::resetAll();

      api::SessionConfig SC;
      SC.Protection = SR.Scheme;
      SC.BackgroundGc = true;
      SC.Seed = Options.Seed;
      api::Session S(SC);

      server::ServerConfig Run = Config;
      if (!StreamPath.empty()) {
        Run.StreamPath = StreamPath;
        Run.StreamIntervalMillis = StreamIntervalMillis;
        Run.StreamLabel = SR.Name;
        // Every phase after the first appends to the one stream file.
        Run.StreamAppend = Round != 0 || I != 0;
      }

      Results[K].push_back(server::runServer(S, Run));
      printResultRow(Table, support::format("%s r%u", SR.Name, Round + 1),
                     Results[K].back());
      Report.addRow(support::format("%s/round%u/requests_per_sec", SR.Name,
                                    Round + 1),
                    Results[K].back().RequestsPerSec, "req/s",
                    Results[K].back().Requests);
    }
  }

  std::printf("\nmedians of %u rounds:\n", kRounds);
  Table.printHeader();
  for (size_t K = 0; K < kNumSchemes; ++K) {
    server::ServerResult R = medianResult(Results[K]);
    printResultRow(Table, Schemes[K].Name, R);
    for (const server::TenantSummary &T : R.Tenants)
      std::printf("  tenant%-2u req=%-9llu faults=%-6llu p99=%llu ns\n",
                  T.Tenant, (unsigned long long)T.Requests,
                  (unsigned long long)T.Faults,
                  (unsigned long long)T.P99Nanos);
    addSchemeRows(Report, Schemes[K].Name, R);
  }

  // Same-round ratios (Schemes[1] is guarded copy, Schemes[2]
  // MTE4JNI-sync): both phases of a round saw the same host period.
  support::SampleSet SyncPerGuarded;
  std::printf("\nmte4jni_sync / guarded_copy req/s by round:");
  for (unsigned Round = 0; Round < kRounds; ++Round) {
    double Ratio = Results[2][Round].RequestsPerSec /
                   Results[1][Round].RequestsPerSec;
    SyncPerGuarded.add(Ratio);
    std::printf(" %.2f", Ratio);
  }
  std::printf(" (median %.2f)\n", SyncPerGuarded.median());

  std::printf("\nnote: faults/s > 0 only under MTE with --rogue-permille "
              "(rogue requests are near-OOB READS —\n"
              "guarded copy cannot see reads, unprotected executes them "
              "silently).\n");
  if (!StreamPath.empty())
    std::printf("stream: %s (m4jstat watch %s)\n", StreamPath.c_str(),
                StreamPath.c_str());

  Report.writeIfRequested(Options);
  return 0;
}
