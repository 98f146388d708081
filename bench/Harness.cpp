//===- Harness.cpp - Shared benchmark harness -----------------------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "mte4jni/support/ThreadPool.h"
#include "mte4jni/support/TraceRing.h"

#include <cstdio>
#include <cstring>
#include <ctime>

/// Injected by the build (git rev-parse --short HEAD); "unknown" outside a
/// git checkout so report consumers can always rely on the field existing.
#ifndef M4J_GIT_SHA
#define M4J_GIT_SHA "unknown"
#endif

namespace mte4jni::bench {

BenchOptions BenchOptions::parse(int Argc, char **Argv) {
  BenchOptions Options;
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (Arg == "--paper") {
      Options.PaperScale = true;
    } else if (Arg == "--quick") {
      Options.Quick = true;
    } else if (support::startsWith(Arg, "--threads=")) {
      uint64_t V;
      if (support::parseUnsigned(Arg.substr(10), V))
        Options.Threads = static_cast<unsigned>(V);
    } else if (support::startsWith(Arg, "--iters=")) {
      uint64_t V;
      if (support::parseUnsigned(Arg.substr(8), V))
        Options.Iterations = static_cast<unsigned>(V);
    } else if (support::startsWith(Arg, "--seed=")) {
      uint64_t V;
      if (support::parseUnsigned(Arg.substr(7), V))
        Options.Seed = V;
    } else if (support::startsWith(Arg, "--json=")) {
      Options.JsonPath = std::string(Arg.substr(7));
    } else if (Arg == "--json") {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "--json requires a path (try --help)\n");
        std::exit(2);
      }
      Options.JsonPath = Argv[++I];
    } else if (support::startsWith(Arg, "--trace=")) {
      Options.TracePath = std::string(Arg.substr(8));
    } else if (Arg == "--trace") {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "--trace requires a path (try --help)\n");
        std::exit(2);
      }
      Options.TracePath = Argv[++I];
    } else if (Arg == "--help" || Arg == "-h") {
      std::printf(
          "usage: %s [--paper] [--quick] [--threads=N] [--iters=N] "
          "[--seed=N] [--json <path>] [--trace <path>]\n"
          "  --paper        full paper-scale parameters (slow)\n"
          "  --quick        smoke-test sizes\n"
          "  --json <path>  write a machine-readable report (timings +\n"
          "                 metrics snapshot) to <path>\n"
          "  --trace <path> write the flight-recorder timeline as Chrome\n"
          "                 trace-event JSON (chrome://tracing, Perfetto)\n",
          Argv[0]);
      std::exit(0);
    } else if (support::startsWith(Arg, "--")) {
      Options.ExtraFlags.emplace_back(Arg);
    } else {
      std::fprintf(stderr, "unknown argument: %s (try --help)\n", Argv[I]);
      std::exit(2);
    }
  }
  return Options;
}

std::string BenchOptions::flagValue(std::string_view Name,
                                    std::string_view Default) const {
  std::string Value(Default);
  std::string Prefix(Name);
  Prefix += '=';
  for (const std::string &F : ExtraFlags)
    if (support::startsWith(F, Prefix))
      Value = F.substr(Prefix.size());
  return Value;
}

uint64_t BenchOptions::flagUnsigned(std::string_view Name,
                                    uint64_t Default) const {
  std::string Text = flagValue(Name);
  uint64_t V;
  if (!Text.empty() && support::parseUnsigned(Text, V))
    return V;
  return Default;
}

void printBanner(const char *Title, const char *PaperArtifact,
                 const BenchOptions &Options) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s\n", Title);
  std::printf("reproduces: %s\n", PaperArtifact);
  std::printf("paper setup (Table 2): OPPO Find N2 Flip, Dimensity 9000+, "
              "12GB, Android 14\n");
  std::printf("this host:             x86-64 simulator, %zu hardware "
              "threads, %s scale\n",
              support::hardwareThreads(),
              Options.PaperScale ? "PAPER" : (Options.Quick ? "QUICK"
                                                            : "default"));
  std::printf("note: absolute times are simulator times; compare SHAPES "
              "(ordering, factors)\n");
  std::printf("==============================================================="
              "=================\n");
}

double measureNanosPerRep(const std::function<uint64_t()> &Fn,
                          uint64_t MinNanos, int MinReps) {
  // Warm-up.
  uint64_t Sink = Fn();

  int Reps = 0;
  support::Stopwatch Timer;
  do {
    Sink += Fn();
    ++Reps;
  } while (Timer.elapsedNanos() < MinNanos || Reps < MinReps);
  // Keep the work observable to the optimiser.
  asm volatile("" : : "r"(Sink));
  return static_cast<double>(Timer.elapsedNanos()) / Reps;
}

TablePrinter::TablePrinter(std::vector<std::string> Headers,
                           std::vector<int> Widths)
    : Headers(std::move(Headers)), Widths(std::move(Widths)) {}

void TablePrinter::printHeader() const {
  for (size_t I = 0; I < Headers.size(); ++I)
    std::printf("%-*s", Widths[I], Headers[I].c_str());
  std::printf("\n");
  printSeparator();
}

void TablePrinter::printRow(const std::vector<std::string> &Cells) const {
  for (size_t I = 0; I < Cells.size() && I < Widths.size(); ++I)
    std::printf("%-*s", Widths[I], Cells[I].c_str());
  std::printf("\n");
}

void TablePrinter::printSeparator() const {
  int Total = 0;
  for (int W : Widths)
    Total += W;
  for (int I = 0; I < Total; ++I)
    std::putchar('-');
  std::putchar('\n');
}

std::string ratioCell(double Ratio) {
  return support::format("%.2fx", Ratio);
}

std::string percentCell(double Percent) {
  return support::format("%.1f%%", Percent);
}

void BenchReport::addRow(std::string Name, double Value, std::string Unit,
                         uint64_t Iterations) {
  Rows.push_back(
      Row{std::move(Name), Value, std::move(Unit), Iterations});
}

std::string BenchReport::toJson() const {
  // Report provenance: schema_version gates downstream parsers (m4jstat,
  // CI trend scripts), git_sha + UTC timestamp pin the run to a commit,
  // and hardware_threads records the host shape the numbers came from.
  char Stamp[32] = "unknown";
  std::time_t Now = std::time(nullptr);
  struct std::tm Utc;
  if (gmtime_r(&Now, &Utc) != nullptr)
    std::strftime(Stamp, sizeof(Stamp), "%Y-%m-%dT%H:%M:%SZ", &Utc);
  std::string Out = support::format(
      "{\n\"schema_version\": 1,\n\"git_sha\": \"%s\",\n"
      "\"timestamp_utc\": \"%s\",\n\"hardware_threads\": %zu,\n"
      "\"bench\": \"%s\",\n\"results\": [",
      support::jsonEscape(M4J_GIT_SHA).c_str(), Stamp,
      support::hardwareThreads(), support::jsonEscape(BenchName).c_str());
  bool First = true;
  for (const Row &R : Rows) {
    Out += support::format(
        "%s\n  {\"name\": \"%s\", \"value\": %.6g, \"unit\": \"%s\", "
        "\"iterations\": %llu}",
        First ? "" : ",", support::jsonEscape(R.Name).c_str(), R.Value,
        support::jsonEscape(R.Unit).c_str(),
        static_cast<unsigned long long>(R.Iterations));
    First = false;
  }
  Out += "\n],\n\"metrics\": ";
  Out += support::Metrics::snapshot().toJson();
  Out += "}\n";
  return Out;
}

bool BenchReport::write(const std::string &Path) const {
  std::string Json = toJson();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  size_t Written = std::fwrite(Json.data(), 1, Json.size(), F);
  return std::fclose(F) == 0 && Written == Json.size();
}

void BenchReport::writeIfRequested(const BenchOptions &Options) const {
  if (!Options.JsonPath.empty()) {
    if (write(Options.JsonPath))
      std::printf("wrote %s (%zu result rows + metrics snapshot)\n",
                  Options.JsonPath.c_str(), Rows.size());
    else
      std::fprintf(stderr, "failed to write %s\n", Options.JsonPath.c_str());
  }
  if (!Options.TracePath.empty()) {
    std::string Trace = support::FlightRecorder::exportChromeJson();
    std::FILE *F = std::fopen(Options.TracePath.c_str(), "w");
    bool Ok = F != nullptr;
    if (F) {
      Ok = std::fwrite(Trace.data(), 1, Trace.size(), F) == Trace.size();
      Ok = (std::fclose(F) == 0) && Ok;
    }
    if (Ok)
      std::printf("wrote %s (%llu flight events)\n", Options.TracePath.c_str(),
                  static_cast<unsigned long long>(
                      support::FlightRecorder::eventCount()));
    else
      std::fprintf(stderr, "failed to write %s\n", Options.TracePath.c_str());
  }
}

SuiteScores::SuiteScores(std::string BenchName)
    : Table({"workload", "guarded", "mte+sync", "mte+async", ""},
            {24, 10, 10, 11, 30}),
      Report(std::move(BenchName)) {
  Table.printHeader();
}

void SuiteScores::addRow(const std::string &Workload, bool JniIntensive,
                         double Guarded, double Sync, double Async) {
  GuardedScores.push_back(Guarded);
  SyncScores.push_back(Sync);
  AsyncScores.push_back(Async);
  Report.addRow(Workload + "/guarded_copy", Guarded, "%");
  Report.addRow(Workload + "/mte4jni_sync", Sync, "%");
  Report.addRow(Workload + "/mte4jni_async", Async, "%");
  std::string Note;
  if (JniIntensive) {
    bool Cross = Sync < Guarded;
    Crossed.emplace_back(Workload, Cross);
    Report.addRow(Workload + "/crossover", Cross ? 1 : 0, "bool");
    Note = Cross ? "  [JNI-intensive] crossed"
                 : "  [JNI-intensive] NOT crossed";
  }
  Table.printRow({Workload, percentCell(Guarded), percentCell(Sync),
                  percentCell(Async), Note});
}

SuiteScores::Geomeans SuiteScores::finish() const {
  Geomeans M{support::geometricMean(GuardedScores),
             support::geometricMean(SyncScores),
             support::geometricMean(AsyncScores)};
  Table.printSeparator();
  Table.printRow({"geomean", percentCell(M.Guarded), percentCell(M.Sync),
                  percentCell(M.Async), ""});
  return M;
}

bool SuiteScores::allCrossed() const {
  for (const auto &[Name, Cross] : Crossed)
    if (!Cross)
      return false;
  return !Crossed.empty();
}

std::string SuiteScores::crossovers() const {
  std::string Out;
  for (const auto &[Name, Cross] : Crossed)
    Out += (Out.empty() ? "" : ", ") + Name + (Cross ? " yes" : " NO");
  return Out;
}

} // namespace mte4jni::bench
