//===- Metrics.cpp - Process-wide metrics registry -----------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/support/Metrics.h"

#include "mte4jni/support/StringUtils.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <mutex>

namespace mte4jni::support {

namespace detail {

thread_local constinit unsigned MetricShardCache = 0;

namespace {

/// Bit i set <=> shard i is owned by a live thread. acq_rel RMWs order a
/// releasing thread's final plain-store against the next claimant's
/// first add on the recycled cell.
std::atomic<uint32_t> UsedShardMask{0};
static_assert(kMetricShards < 32,
              "UsedShardMask is 32 bits; 1u << kMetricShards must be defined");

unsigned claimShard() {
  uint32_t Mask = UsedShardMask.load(std::memory_order_relaxed);
  for (;;) {
    uint32_t Free = ~Mask & ((1u << kMetricShards) - 1);
    if (Free == 0)
      return kMetricOverflowShard;
    unsigned Bit = static_cast<unsigned>(std::countr_zero(Free));
    if (UsedShardMask.compare_exchange_weak(Mask, Mask | (1u << Bit),
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed))
      return Bit;
  }
}

/// Returns the thread's shard at exit so it can be recycled. Afterwards
/// the cache points at the overflow shard: a metric touched from a later
/// thread_local destructor still counts, atomically, instead of writing
/// to a cell a new thread may now own.
struct ShardClaim {
  ~ShardClaim() {
    unsigned Cached = MetricShardCache;
    MetricShardCache = kMetricOverflowShard + 1;
    if (Cached != 0 && Cached - 1 < kMetricShards)
      UsedShardMask.fetch_and(~(1u << (Cached - 1)),
                              std::memory_order_acq_rel);
  }
};

} // namespace

unsigned assignMetricShardSlow() {
  unsigned Shard = claimShard();
  MetricShardCache = Shard + 1;
  if (Shard != kMetricOverflowShard) {
    // Touch the releaser so its destructor registers for thread exit.
    thread_local ShardClaim Claim;
    (void)Claim;
  }
  return Shard;
}

} // namespace detail

// ==== Counter / Histogram aggregation =====================================

uint64_t Counter::value() const {
  uint64_t Sum = 0;
  for (const Cell &C : Cells)
    Sum += C.V.load(std::memory_order_relaxed);
  return Sum;
}

void Counter::reset() {
  for (Cell &C : Cells)
    C.V.store(0, std::memory_order_relaxed);
}

uint64_t Histogram::count() const {
  uint64_t Sum = 0;
  for (const Shard &S : Shards)
    Sum += S.Count.load(std::memory_order_relaxed);
  return Sum;
}

uint64_t Histogram::sum() const {
  uint64_t Sum = 0;
  for (const Shard &S : Shards)
    Sum += S.Sum.load(std::memory_order_relaxed);
  return Sum;
}

uint64_t Histogram::minValue() const {
  uint64_t Min = UINT64_MAX;
  for (const Shard &S : Shards) {
    uint64_t V = S.Min.load(std::memory_order_relaxed);
    if (V < Min)
      Min = V;
  }
  return Min == UINT64_MAX ? 0 : Min; // empty histogram reads as 0
}

uint64_t Histogram::maxValue() const {
  uint64_t Max = 0;
  for (const Shard &S : Shards) {
    uint64_t V = S.Max.load(std::memory_order_relaxed);
    if (V > Max)
      Max = V;
  }
  return Max;
}

std::array<uint64_t, Histogram::kBuckets> Histogram::bucketCounts() const {
  std::array<uint64_t, kBuckets> Out = {};
  for (const Shard &S : Shards)
    for (unsigned B = 0; B < kBuckets; ++B)
      Out[B] += S.Buckets[B].load(std::memory_order_relaxed);
  return Out;
}

void Histogram::reset() {
  for (Shard &S : Shards) {
    for (unsigned B = 0; B < kBuckets; ++B)
      S.Buckets[B].store(0, std::memory_order_relaxed);
    S.Count.store(0, std::memory_order_relaxed);
    S.Sum.store(0, std::memory_order_relaxed);
    S.Min.store(UINT64_MAX, std::memory_order_relaxed);
    S.Max.store(0, std::memory_order_relaxed);
  }
}

uint64_t HistogramSample::percentileUpperBound(double P) const {
  if (Count == 0)
    return 0;
  double Rank = (std::min(std::max(P, 0.0), 100.0) / 100.0) *
                static_cast<double>(Count);
  uint64_t Seen = 0;
  for (unsigned B = 0; B < Histogram::kBuckets; ++B) {
    Seen += Buckets[B];
    if (static_cast<double>(Seen) >= Rank && Seen > 0)
      return Histogram::bucketUpperBound(B);
  }
  return Histogram::bucketUpperBound(Histogram::kBuckets - 1);
}

// ==== fault ring ==========================================================

void FaultRing::record(FaultEvent Event) {
  std::lock_guard<SpinLock> Guard(Lock);
  Event.Sequence = Next;
  if (Event.TimestampNanos == 0)
    Event.TimestampNanos = monotonicNanos();
  Ring[Next % kCapacity] = std::move(Event);
  ++Next;
}

std::vector<FaultEvent> FaultRing::snapshot() const {
  std::lock_guard<SpinLock> Guard(Lock);
  std::vector<FaultEvent> Out;
  uint64_t N = std::min<uint64_t>(Next, kCapacity);
  Out.reserve(N);
  for (uint64_t I = Next - N; I < Next; ++I)
    Out.push_back(Ring[I % kCapacity]);
  return Out;
}

uint64_t FaultRing::totalRecorded() const {
  std::lock_guard<SpinLock> Guard(Lock);
  return Next;
}

void FaultRing::clear() {
  std::lock_guard<SpinLock> Guard(Lock);
  for (FaultEvent &E : Ring)
    E = FaultEvent{};
  Next = 0;
}

// ==== registry ============================================================

namespace {

enum class MetricType : uint8_t { Counter, Gauge, Histogram };

struct Registry {
  std::mutex Lock;
  // std::map keeps names sorted, so snapshots are deterministic for free.
  std::map<std::string, std::pair<MetricType, std::unique_ptr<Counter>>>
      Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
  std::map<std::string, std::pair<DerivedCounterFn, DerivedResetFn>>
      Derived;
  FaultRing Ring;
};

/// Leaked on purpose: instrumented call sites hold references from
/// function-local statics and may fire during static destruction.
Registry &registry() {
  static Registry *R = new Registry;
  return *R;
}

} // namespace

Counter &Metrics::counter(const char *Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Guard(R.Lock);
  auto &Slot = R.Counters[Name];
  if (!Slot.second) {
    Slot.first = MetricType::Counter;
    Slot.second = std::make_unique<Counter>();
  }
  return *Slot.second;
}

Gauge &Metrics::gauge(const char *Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Guard(R.Lock);
  auto &Slot = R.Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

Histogram &Metrics::histogram(const char *Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Guard(R.Lock);
  auto &Slot = R.Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<Histogram>();
  return *Slot;
}

void Metrics::registerDerived(const char *Name, DerivedCounterFn Fn,
                              DerivedResetFn Reset) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Guard(R.Lock);
  R.Derived[Name] = {Fn, Reset};
}

FaultRing &Metrics::faultRing() { return registry().Ring; }

MetricsSnapshot Metrics::snapshot() {
  Registry &R = registry();
  MetricsSnapshot Out;
  // Derived callbacks may themselves call Metrics::counter(); copy them
  // under the lock and evaluate after releasing it.
  std::vector<std::pair<std::string, DerivedCounterFn>> Derived;
  {
    std::lock_guard<std::mutex> Guard(R.Lock);
    Out.Counters.reserve(R.Counters.size() + R.Derived.size());
    for (const auto &[Name, Metric] : R.Counters)
      Out.Counters.push_back({Name, Metric.second->value()});
    Derived.reserve(R.Derived.size());
    for (const auto &[Name, Fns] : R.Derived)
      Derived.push_back({Name, Fns.first});
    Out.Gauges.reserve(R.Gauges.size());
    for (const auto &[Name, G] : R.Gauges)
      Out.Gauges.push_back({Name, G->value()});
    Out.Histograms.reserve(R.Histograms.size());
    for (const auto &[Name, H] : R.Histograms) {
      HistogramSample S;
      S.Name = Name;
      S.Buckets = H->bucketCounts();
      // Derive count/sum from the same shard reads' era; relaxed reads
      // make this approximate under concurrent writers, exact when
      // quiescent (which is when snapshots are taken in practice).
      S.Count = H->count();
      S.Sum = H->sum();
      S.Min = H->minValue();
      S.Max = H->maxValue();
      Out.Histograms.push_back(std::move(S));
    }
  }
  if (!Derived.empty()) {
    size_t DirectEnd = Out.Counters.size();
    for (auto &[Name, Fn] : Derived)
      Out.Counters.push_back({std::move(Name), Fn()});
    // Both runs come from sorted maps; restore global name order.
    std::inplace_merge(
        Out.Counters.begin(), Out.Counters.begin() + DirectEnd,
        Out.Counters.end(),
        [](const CounterSample &A, const CounterSample &B) {
          return A.Name < B.Name;
        });
  }
  Out.Faults = R.Ring.snapshot();
  Out.FaultsTotal = R.Ring.totalRecorded();
  return Out;
}

void Metrics::resetAll() {
  Registry &R = registry();
  // Like the read callbacks in snapshot(), reset callbacks run after the
  // registry lock is released.
  std::vector<DerivedResetFn> Resets;
  {
    std::lock_guard<std::mutex> Guard(R.Lock);
    for (auto &[Name, Metric] : R.Counters)
      Metric.second->reset();
    for (auto &[Name, G] : R.Gauges)
      G->reset();
    for (auto &[Name, H] : R.Histograms)
      H->reset();
    for (const auto &[Name, Fns] : R.Derived)
      if (Fns.second)
        Resets.push_back(Fns.second);
  }
  for (DerivedResetFn Reset : Resets)
    Reset();
  R.Ring.clear();
}

// ==== snapshot lookups ====================================================

uint64_t MetricsSnapshot::counterValue(std::string_view Name,
                                       uint64_t Default) const {
  for (const CounterSample &C : Counters)
    if (C.Name == Name)
      return C.Value;
  return Default;
}

int64_t MetricsSnapshot::gaugeValue(std::string_view Name,
                                    int64_t Default) const {
  for (const GaugeSample &G : Gauges)
    if (G.Name == Name)
      return G.Value;
  return Default;
}

const HistogramSample *
MetricsSnapshot::histogram(std::string_view Name) const {
  for (const HistogramSample &H : Histograms)
    if (H.Name == Name)
      return &H;
  return nullptr;
}

// ==== exporters ===========================================================

std::string jsonEscape(std::string_view Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (char C : Text) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += format("\\u%04x", C);
      else
        Out += C;
    }
  }
  return Out;
}

std::string MetricsSnapshot::toJson() const {
  std::string Out = "{\n  \"counters\": {";
  bool First = true;
  for (const CounterSample &C : Counters) {
    Out += format("%s\n    \"%s\": %llu", First ? "" : ",",
                  jsonEscape(C.Name).c_str(),
                  static_cast<unsigned long long>(C.Value));
    First = false;
  }
  Out += "\n  },\n  \"gauges\": {";
  First = true;
  for (const GaugeSample &G : Gauges) {
    Out += format("%s\n    \"%s\": %lld", First ? "" : ",",
                  jsonEscape(G.Name).c_str(),
                  static_cast<long long>(G.Value));
    First = false;
  }
  Out += "\n  },\n  \"histograms\": {";
  First = true;
  for (const HistogramSample &H : Histograms) {
    Out += format(
        "%s\n    \"%s\": {\"count\": %llu, \"sum\": %llu, \"mean\": %.3f, "
        "\"min\": %llu, \"max\": %llu, "
        "\"p50_le\": %llu, \"p99_le\": %llu, \"p999_le\": %llu, "
        "\"buckets\": [",
        First ? "" : ",", jsonEscape(H.Name).c_str(),
        static_cast<unsigned long long>(H.Count),
        static_cast<unsigned long long>(H.Sum), H.mean(),
        static_cast<unsigned long long>(H.Min),
        static_cast<unsigned long long>(H.Max),
        static_cast<unsigned long long>(H.percentileUpperBound(50)),
        static_cast<unsigned long long>(H.percentileUpperBound(99)),
        static_cast<unsigned long long>(H.percentileUpperBound(99.9)));
    bool FirstBucket = true;
    for (unsigned B = 0; B < Histogram::kBuckets; ++B) {
      if (H.Buckets[B] == 0)
        continue;
      Out += format("%s[%llu, %llu]", FirstBucket ? "" : ", ",
                    static_cast<unsigned long long>(
                        Histogram::bucketUpperBound(B)),
                    static_cast<unsigned long long>(H.Buckets[B]));
      FirstBucket = false;
    }
    Out += "]}";
    First = false;
  }
  Out += format("\n  },\n  \"faults\": {\n    \"total\": %llu,\n"
                "    \"ring\": [",
                static_cast<unsigned long long>(FaultsTotal));
  First = true;
  for (const FaultEvent &E : Faults) {
    Out += format(
        "%s\n      {\"seq\": %llu, \"timestamp_ns\": %llu, \"kind\": "
        "\"%s\", \"address\": %s, \"pointer_tag\": %u, \"memory_tag\": %u, "
        "\"is_write\": %s, \"access_size\": %u, \"thread\": %llu, "
        "\"backtrace\": \"%s\"}",
        First ? "" : ",", static_cast<unsigned long long>(E.Sequence),
        static_cast<unsigned long long>(E.TimestampNanos),
        jsonEscape(E.Kind).c_str(),
        E.HasAddress
            ? format("%llu", static_cast<unsigned long long>(E.Address))
                  .c_str()
            : "null",
        unsigned(E.PointerTag), unsigned(E.MemoryTag),
        E.IsWrite ? "true" : "false", E.AccessSize,
        static_cast<unsigned long long>(E.ThreadId),
        jsonEscape(E.Backtrace).c_str());
    First = false;
  }
  Out += "\n    ]\n  }\n}\n";
  return Out;
}

std::string MetricsSnapshot::toJsonLine() const {
  std::string Pretty = toJson();
  std::string Out;
  Out.reserve(Pretty.size());
  for (char C : Pretty)
    if (C != '\n')
      Out += C;
  return Out;
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; ours use '/' paths.
std::string promName(std::string_view Name) {
  std::string Out = "m4j_";
  for (char C : Name)
    Out += (std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
            C == ':')
               ? C
               : '_';
  return Out;
}

} // namespace

std::string MetricsSnapshot::toPrometheusText() const {
  std::string Out;
  for (const CounterSample &C : Counters) {
    std::string N = promName(C.Name);
    Out += format("# TYPE %s counter\n%s %llu\n", N.c_str(), N.c_str(),
                  static_cast<unsigned long long>(C.Value));
  }
  for (const GaugeSample &G : Gauges) {
    std::string N = promName(G.Name);
    Out += format("# TYPE %s gauge\n%s %lld\n", N.c_str(), N.c_str(),
                  static_cast<long long>(G.Value));
  }
  for (const HistogramSample &H : Histograms) {
    std::string N = promName(H.Name);
    Out += format("# TYPE %s histogram\n", N.c_str());
    uint64_t Cumulative = 0;
    for (unsigned B = 0; B < Histogram::kBuckets; ++B) {
      if (H.Buckets[B] == 0)
        continue;
      Cumulative += H.Buckets[B];
      Out += format("%s_bucket{le=\"%llu\"} %llu\n", N.c_str(),
                    static_cast<unsigned long long>(
                        Histogram::bucketUpperBound(B)),
                    static_cast<unsigned long long>(Cumulative));
    }
    Out += format("%s_bucket{le=\"+Inf\"} %llu\n", N.c_str(),
                  static_cast<unsigned long long>(H.Count));
    Out += format("%s_sum %llu\n%s_count %llu\n", N.c_str(),
                  static_cast<unsigned long long>(H.Sum), N.c_str(),
                  static_cast<unsigned long long>(H.Count));
  }
  std::string FN = promName("mte/faults/ring_total");
  Out += format("# TYPE %s counter\n%s %llu\n", FN.c_str(), FN.c_str(),
                static_cast<unsigned long long>(FaultsTotal));
  return Out;
}

} // namespace mte4jni::support
