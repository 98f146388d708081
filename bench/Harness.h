//===- Harness.h - Shared benchmark harness -----------------------------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Utilities shared by the per-figure benchmark binaries: CLI flags
/// (--paper for full paper-scale parameters, --quick for smoke runs),
/// the Table-2-style environment banner, fixed-width table printing,
/// repetition-controlled timing and the fig7/fig8 suite table.
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_BENCH_HARNESS_H
#define MTE4JNI_BENCH_HARNESS_H

#include "mte4jni/api/Session.h"
#include "mte4jni/support/Statistics.h"
#include "mte4jni/support/StringUtils.h"
#include "mte4jni/support/Timer.h"

#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace mte4jni::bench {

struct BenchOptions {
  /// Full paper-scale parameters (64 threads x 10000 iterations etc.).
  bool PaperScale = false;
  /// Smoke-test sizes for CI.
  bool Quick = false;
  /// Overrides (0 = use the scale default).
  unsigned Threads = 0;
  unsigned Iterations = 0;
  uint64_t Seed = 1;
  /// When non-empty: write a machine-readable BENCH_<name>.json report
  /// (timing rows + embedded metrics snapshot) to this path.
  std::string JsonPath;
  /// When non-empty: write the flight-recorder timeline (Chrome
  /// trace-event JSON, chrome://tracing / Perfetto loadable) to this path
  /// at the end of the run.
  std::string TracePath;

  /// Bench-specific "--name" flags that the common parser did not consume.
  std::vector<std::string> ExtraFlags;

  bool hasFlag(std::string_view Name) const {
    for (const std::string &F : ExtraFlags)
      if (F == Name)
        return true;
    return false;
  }

  /// Value of a bench-specific "--name=value" flag (last wins), or
  /// \p Default when absent. \p Name includes the dashes ("--stream").
  std::string flagValue(std::string_view Name,
                        std::string_view Default = "") const;

  /// flagValue() parsed as an unsigned integer; \p Default when the flag
  /// is absent or not a number.
  uint64_t flagUnsigned(std::string_view Name, uint64_t Default) const;

  /// Parses argv; prints usage and exits on --help. Unknown --flags are
  /// collected into ExtraFlags for the individual bench to interpret.
  static BenchOptions parse(int Argc, char **Argv);
};

/// Prints the experiment banner: what the paper used (Table 2) vs. this
/// host, plus the benchmark's parameters.
void printBanner(const char *Title, const char *PaperArtifact,
                 const BenchOptions &Options);

/// Runs \p Fn repeatedly until at least \p MinNanos of wall time has been
/// observed (minimum \p MinReps repetitions) and returns nanoseconds per
/// repetition. A volatile sink defeats dead-code elimination.
double measureNanosPerRep(const std::function<uint64_t()> &Fn,
                          uint64_t MinNanos = 20'000'000, int MinReps = 3);

/// Simple fixed-width table printer.
class TablePrinter {
public:
  explicit TablePrinter(std::vector<std::string> Headers,
                        std::vector<int> Widths);
  void printHeader() const;
  void printRow(const std::vector<std::string> &Cells) const;
  void printSeparator() const;

private:
  std::vector<std::string> Headers;
  std::vector<int> Widths;
};

/// "12.34x" / "98.7%" cell helpers.
std::string ratioCell(double Ratio);
std::string percentCell(double Percent);

/// Collects named timing rows and writes the machine-readable
/// BENCH_<name>.json document: per-row timings plus an embedded snapshot
/// of the process-wide metrics registry, so every benchmark run leaves
/// the counters that explain its numbers next to the numbers themselves.
class BenchReport {
public:
  explicit BenchReport(std::string BenchName)
      : BenchName(std::move(BenchName)) {}

  /// One result row. \p Unit describes Value ("ns", "ns/op", "MB/s"...);
  /// \p Iterations is 0 when not applicable.
  void addRow(std::string Name, double Value, std::string Unit,
              uint64_t Iterations = 0);

  bool empty() const { return Rows.empty(); }

  /// The report document (rows + metrics snapshot + fault ring).
  std::string toJson() const;

  /// Writes toJson() to \p Path; returns false on I/O failure.
  bool write(const std::string &Path) const;

  /// Convenience: write when Options.JsonPath is set, logging the path.
  void writeIfRequested(const BenchOptions &Options) const;

private:
  struct Row {
    std::string Name;
    double Value = 0;
    std::string Unit;
    uint64_t Iterations = 0;
  };
  std::string BenchName;
  std::vector<Row> Rows;
};

/// The fig7/fig8 workload-suite table. A row holds one workload's
/// guarded-copy, MTE4JNI-sync and MTE4JNI-async scores, in percent of no
/// protection, and is printed as it is added. A JNI-intensive row
/// crosses when its sync score is below its guarded one: the paper's
/// Figure 7/8 crossover. The --json report has one row per score,
/// "<workload>/<scheme>" in percent, and one per JNI-intensive workload,
/// "<workload>/crossover", 1 when it crossed and 0 when not.
class SuiteScores {
public:
  explicit SuiteScores(std::string BenchName);

  void addRow(const std::string &Workload, bool JniIntensive, double Guarded,
              double Sync, double Async);

  struct Geomeans {
    double Guarded, Sync, Async;
  };
  /// Prints the geomean row under the table and returns its values.
  Geomeans finish() const;

  /// True when every JNI-intensive row crossed.
  bool allCrossed() const;
  /// Each JNI-intensive row's result: "Clang yes, Text Processing NO, ...".
  std::string crossovers() const;

  void writeIfRequested(const BenchOptions &Options) const {
    Report.writeIfRequested(Options);
  }

private:
  TablePrinter Table;
  BenchReport Report;
  std::vector<double> GuardedScores, SyncScores, AsyncScores;
  std::vector<std::pair<std::string, bool>> Crossed;
};

} // namespace mte4jni::bench

#endif // MTE4JNI_BENCH_HARNESS_H
