//===- Trace.h - Outside-in spans for the traced benchmark run -----*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark records around its own calls into each layer's
/// public functions (nothing inside the program is instrumented). A span
/// has a name, start, end, parent span and the id of the call it belongs
/// to. Each client thread owns one SpanTracer, so recording takes no lock.
///
/// Memory stays bounded however long the run: per span name the tracer
/// aggregates count, total and self time, work units and a duration
/// histogram online, and keeps raw spans only for sampled calls, up to a
/// cap. Self time is a span's duration minus the time its direct children
/// cover; the benchmark makes children tile each call, so the self times
/// of one call add up to its duration exactly.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "Stats.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum SpanId : uint8_t {
  kSpanCall,            ///< one closed-loop call, start to return
  kSpanTrampolineEntry, ///< rt::callNative entry to the body's first line
  kSpanTrampolineExit,  ///< body's last line to rt::callNative's return
  kSpanNativeBody,      ///< the native method body the benchmark owns
  kSpanPinAcquire,      ///< Get* pin of a buffer this thread alone pins
  kSpanPinSharedAcquire, ///< Get* pin of the array every thread pins
  kSpanPinRelease,      ///< Release* of a pin
  kSpanCheckLoad,       ///< per-element mte::load loop
  kSpanCheckStore,      ///< per-element mte::store loop
  kSpanCheckRange,      ///< bulk copyBytes/readBytes/writeBytes/checkReadRange
  kSpanRegion,          ///< Get/SetIntArrayRegion
  kSpanHeapAlloc,       ///< PushLocalFrame + NewIntArrayLocal + PopLocalFrame
  kSpanRunClang,        ///< Workload::run of "Clang"
  kSpanRunText,         ///< Workload::run of "Text Processing"
  kSpanRunPdf,          ///< Workload::run of "PDF Renderer"
  kSpanRunHtmlDom,      ///< Workload::run of "HTML5 DOM Strings"
  kNumSpans
};

const char *spanName(SpanId Id);

/// The layer a span's self time is charged to.
enum class Layer : uint8_t {
  Call,       ///< the root; zero self time when children tile the call
  Trampoline, ///< rt::callNative entry and exit
  Pin,        ///< jni + core: Table-1 pins
  Check,      ///< mte checked access
  Region,     ///< jni region copies
  Heap,       ///< rt heap allocation
  Workloads,  ///< library native bodies
  Body,       ///< benchmark-owned body time no child span covers
  kNumLayers
};
inline constexpr unsigned kNumLayers = static_cast<unsigned>(Layer::kNumLayers);

Layer layerOf(SpanId Id);
const char *layerName(Layer L);

struct SpanStats {
  uint64_t Count = 0;
  uint64_t TotalNanos = 0;
  uint64_t SelfNanos = 0;
  /// Work the spans covered: accesses for the per-element loops, bytes for
  /// bulk checks; 0 otherwise.
  uint64_t Units = 0;
  LatencyHistogram Durations;

  void merge(const SpanStats &Other);
};

struct RawSpan {
  uint64_t StartNanos = 0;
  uint64_t EndNanos = 0;
  uint64_t CallId = 0;
  uint32_t Seq = 0;    ///< unique within the thread
  uint32_t Parent = 0; ///< Seq of the enclosing span; 0 for a call
  SpanId Id = kSpanCall;
};

class SpanTracer {
public:
  /// Keeps raw spans of every \p SampleEvery-th call, at most \p MaxRaw.
  SpanTracer(uint64_t SampleEvery, size_t MaxRaw);

  /// Starts call \p CallId; the next begin() should open its kSpanCall.
  void beginCall(uint64_t CallId);
  void begin(SpanId Id, uint64_t NowNanos);
  /// Closes the innermost open span.
  void end(uint64_t NowNanos, uint64_t Units = 0);

  const SpanStats &stats(SpanId Id) const { return Stats[Id]; }
  const std::vector<RawSpan> &raw() const { return Raw; }
  unsigned depth() const { return Depth; }

private:
  struct Open {
    SpanId Id;
    uint64_t StartNanos;
    uint64_t ChildNanos;
    uint32_t Seq;
  };
  static constexpr unsigned kMaxDepth = 8;

  std::array<SpanStats, kNumSpans> Stats;
  Open Stack[kMaxDepth] = {};
  unsigned Depth = 0;
  uint64_t SampleEvery;
  size_t MaxRaw;
  uint64_t CallId = 0;
  bool Sampled = false;
  uint32_t NextSeq = 1;
  std::vector<RawSpan> Raw;
};

/// Writes the sampled spans of every thread as a Chrome trace-event JSON
/// document (loadable in Perfetto), with \p OtherDataJson — a JSON object
/// — under "otherData". Returns false when the file cannot be written.
bool writeChromeTrace(const std::string &Path,
                      const std::vector<const SpanTracer *> &Threads,
                      uint64_t EpochNanos, const std::string &OtherDataJson);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
