//===- Stats.cpp - Benchmark arithmetic: histograms and call tallies ------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace perfbench {

unsigned LatencyHistogram::bucketOf(uint64_t Value) {
  if (Value < kSub)
    return static_cast<unsigned>(Value);
  unsigned Msb = 63u - static_cast<unsigned>(std::countl_zero(Value));
  if (Msb >= kMaxBits)
    return kBuckets - 1;
  unsigned Shift = Msb - kSubBits;
  // Value >> Shift lies in [kSub, 2*kSub): the position within the octave.
  return static_cast<unsigned>((Shift + 1) * kSub + ((Value >> Shift) - kSub));
}

uint64_t LatencyHistogram::bucketLow(unsigned Bucket) {
  if (Bucket < kSub)
    return Bucket;
  unsigned Shift = Bucket / kSub - 1;
  return (kSub + Bucket % kSub) << Shift;
}

uint64_t LatencyHistogram::bucketWidth(unsigned Bucket) {
  return Bucket < kSub ? 1 : uint64_t(1) << (Bucket / kSub - 1);
}

void LatencyHistogram::merge(const LatencyHistogram &Other) {
  for (unsigned B = 0; B < kBuckets; ++B)
    Counts[B] += Other.Counts[B];
  N += Other.N;
  Sum += Other.Sum;
}

double LatencyHistogram::percentile(double P) const {
  if (N == 0)
    return 0;
  uint64_t Rank = static_cast<uint64_t>(std::ceil(P / 100.0 * double(N)));
  Rank = std::clamp<uint64_t>(Rank, 1, N);
  uint64_t Seen = 0;
  for (unsigned B = 0; B < kBuckets; ++B) {
    if (Seen + Counts[B] >= Rank) {
      const uint64_t Width = bucketWidth(B);
      if (Width == 1)
        return double(bucketLow(B));
      // Interpolating keeps the value continuous: a bucket midpoint would
      // read the same on every run once the distribution barely moves.
      double Frac = (double(Rank - Seen) - 0.5) / double(Counts[B]);
      return double(bucketLow(B)) + Frac * double(Width);
    }
    Seen += Counts[B];
  }
  return double(bucketLow(kBuckets - 1));
}

const char *plantName(Plant P) {
  switch (P) {
  case Plant::OobRead:
    return "oob_read";
  case Plant::OobWrite:
    return "oob_write";
  case Plant::UseAfterRelease:
    return "use_after_release";
  case Plant::SubGranuleRead:
    return "sub_granule_read";
  }
  return "?";
}

void Tally::benign(bool ChecksumOk, uint64_t Faults, bool PendingException) {
  ++Attempted;
  BadChecksums += ChecksumOk ? 0 : 1;
  FalseFaults += Faults;
  PendingExceptions += PendingException ? 1 : 0;
  if (!ChecksumOk || Faults != 0 || PendingException)
    ++BenignFailed;
}

void Tally::planted(Plant P, uint64_t Faults) {
  ++Attempted;
  ++Planted[static_cast<unsigned>(P)];
  if (Faults == 0)
    ++Missed[static_cast<unsigned>(P)];
}

void Tally::merge(const Tally &Other) {
  Attempted += Other.Attempted;
  BenignFailed += Other.BenignFailed;
  BadChecksums += Other.BadChecksums;
  FalseFaults += Other.FalseFaults;
  PendingExceptions += Other.PendingExceptions;
  for (unsigned I = 0; I < kNumPlants; ++I) {
    Planted[I] += Other.Planted[I];
    Missed[I] += Other.Missed[I];
  }
}

uint64_t Tally::missed() const {
  uint64_t Total = 0;
  for (uint64_t M : Missed)
    Total += M;
  return Total;
}

double Tally::errorRate() const {
  return Attempted ? double(failedCalls()) / double(Attempted) : 0.0;
}

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Pos = std::clamp(Q, 0.0, 1.0) * double(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Pos - double(Lo)) * (Values[Hi] - Values[Lo]);
}

} // namespace perfbench
