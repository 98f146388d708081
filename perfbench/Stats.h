//===- Stats.h - Benchmark arithmetic: histograms and call tallies -*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arithmetic the benchmark reports with, kept apart from the runtime
/// so stats_test.cpp can check it on known inputs:
///
///   * LatencyHistogram — fixed-size log-linear histogram. The runtime's
///     own histograms are log2 buckets (2x wide), too coarse for a gated
///     percentile; this one splits every power of two into 128 buckets, so
///     a reported percentile (interpolated inside its bucket) is within
///     0.8% of the sample value, and its memory (15 KiB) does not grow with
///     the number of calls.
///   * Tally — per-call outcomes: benign calls that failed (wrong
///     checksum, tag fault, pending JNI exception) and planted illicit
///     accesses that no fault was delivered for.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

class LatencyHistogram {
public:
  /// 2^kSubBits buckets per power of two; values below 2^kSubBits are
  /// counted exactly.
  static constexpr unsigned kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t(1) << kSubBits;
  /// Values at or above 2^kMaxBits (~69 s in ns) share the top bucket.
  static constexpr unsigned kMaxBits = 36;
  static constexpr unsigned kBuckets = (kMaxBits - kSubBits + 1) * kSub;

  LatencyHistogram() : Counts(kBuckets, 0) {}

  void record(uint64_t Value) {
    ++Counts[bucketOf(Value)];
    ++N;
    Sum += Value;
  }
  void merge(const LatencyHistogram &Other);

  uint64_t count() const { return N; }
  uint64_t sum() const { return Sum; }

  /// The nearest-rank \p P-th percentile (0 < P <= 100): the value of the
  /// ceil(P/100 * count)-th smallest sample, placed inside its bucket as if
  /// the bucket's samples were spread evenly over it (exact below
  /// 2^kSubBits). 0 when empty.
  double percentile(double P) const;

  static unsigned bucketOf(uint64_t Value);
  static uint64_t bucketLow(unsigned Bucket);
  static uint64_t bucketWidth(unsigned Bucket);

private:
  /// 32-bit cells keep the histogram small; a bucket overflows only past
  /// 2^32 samples, far beyond any run.
  std::vector<uint32_t> Counts;
  uint64_t N = 0;
  uint64_t Sum = 0;
};

/// The illicit-access classes the workloads plant on a probe array.
/// SubGranuleRead reads the probe's last granule past its payload: MTE's
/// 16-byte granularity cannot see it, so it is always missed.
enum class Plant : uint8_t {
  OobRead,
  OobWrite,
  UseAfterRelease,
  SubGranuleRead
};
inline constexpr unsigned kNumPlants = 4;
const char *plantName(Plant P);

/// Outcomes of the calls one or more client threads made.
struct Tally {
  uint64_t Attempted = 0;
  /// Benign calls with at least one failure below (each call counted once).
  uint64_t BenignFailed = 0;
  uint64_t BadChecksums = 0;
  uint64_t FalseFaults = 0;
  uint64_t PendingExceptions = 0;
  uint64_t Planted[kNumPlants] = {};
  uint64_t Missed[kNumPlants] = {};

  /// One benign call: \p ChecksumOk compares it with the reference pass,
  /// \p Faults counts tag faults delivered during it.
  void benign(bool ChecksumOk, uint64_t Faults, bool PendingException);
  /// One planted illicit access and the faults delivered during it.
  void planted(Plant P, uint64_t Faults);
  void merge(const Tally &Other);

  uint64_t missed() const;
  /// Calls that count against error_rate: failed benign calls plus
  /// planted accesses that went undetected.
  uint64_t failedCalls() const { return BenignFailed + missed(); }
  /// failedCalls() / Attempted; 0 when nothing was attempted.
  double errorRate() const;
};

/// The \p Q-quantile (0 <= Q <= 1) of \p Values, interpolating linearly
/// between order statistics (the "inclusive" method); 0 when empty. Takes a
/// copy because it reorders.
double quantile(std::vector<double> Values, double Q);
inline double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
