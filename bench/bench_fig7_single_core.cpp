//===- bench_fig7_single_core.cpp - Figure 7 reproduction -----------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Figure 7 of the paper: single-core scores of the Geekbench-style
// workload suite under each scheme, relative to no protection (100%).
//
// Paper result (shape): mean degradations guarded 5.90%, mte+sync 5.33%,
// mte+async 1.13%; the JNI-intensive workloads (Clang, Text Processing,
// PDF Renderer) do WORSE under mte+sync than under guarded copy.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "mte4jni/workloads/Workload.h"

#include <cstdio>

using namespace mte4jni;
using namespace mte4jni::bench;

namespace {

/// ns/iteration of one workload under one scheme.
double timeWorkload(const std::string &Name, api::Scheme Scheme,
                    uint64_t MinNanos, uint64_t Seed) {
  api::SessionConfig C;
  C.Protection = Scheme;
  C.HeapBytes = 64ull << 20;
  C.Seed = Seed;
  api::Session S(C);
  api::ScopedAttach Main(S, "bench");
  rt::HandleScope Scope(S.runtime());

  auto W = workloads::makeWorkload(Name.c_str());
  workloads::WorkloadContext Ctx{S, Main.env(), Main.thread(), Scope, Seed};
  W->prepare(Ctx);
  return measureNanosPerRep([&] { return W->run(Ctx); }, MinNanos, 2);
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Options = BenchOptions::parse(Argc, Argv);
  printBanner("bench_fig7_single_core — workload suite, one core",
              "Figure 7 (relative single-core performance of sub-items; "
              "Geekbench 6.3.0 stand-in suite)",
              Options);

  const uint64_t MinNanos = Options.Quick ? 3'000'000
                            : Options.PaperScale ? 200'000'000
                                                 : 30'000'000;

  SuiteScores Scores("fig7_single_core");
  for (auto &W : workloads::makeAllWorkloads()) {
    std::string Name = W->name();
    double None = timeWorkload(Name, api::Scheme::NoProtection, MinNanos,
                               Options.Seed);
    double Guarded = timeWorkload(Name, api::Scheme::GuardedCopy, MinNanos,
                                  Options.Seed);
    double Sync = timeWorkload(Name, api::Scheme::Mte4JniSync, MinNanos,
                               Options.Seed);
    double Async = timeWorkload(Name, api::Scheme::Mte4JniAsync, MinNanos,
                                Options.Seed);

    // Score = throughput relative to no protection, in percent.
    Scores.addRow(Name, W->isJniIntensive(), 100.0 * None / Guarded,
                  100.0 * None / Sync, 100.0 * None / Async);
  }
  SuiteScores::Geomeans M = Scores.finish();

  std::printf("\npaper single-core degradations: guarded 5.90%%, mte+sync "
              "5.33%%, mte+async 1.13%%\n");
  std::printf("(software tag checks cost more than hardware ones; compare "
              "ordering, not magnitudes)\n");
  std::printf("shape checks: async best of the three: %s; JNI-intensive "
              "crossover (sync < guarded on every JNI-intensive row): %s "
              "(%s)\n",
              M.Async >= M.Sync * 0.97 && M.Async >= M.Guarded ? "yes"
                                                               : "NO (noise?)",
              Scores.allCrossed() ? "yes" : "NO", Scores.crossovers().c_str());
  Scores.writeIfRequested(Options);
  return 0;
}
