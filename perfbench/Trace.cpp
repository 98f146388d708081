//===- Trace.cpp - Outside-in spans for the traced benchmark run ----------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

const char *spanName(SpanId Id) {
  switch (Id) {
  case kSpanCall:
    return "call";
  case kSpanTrampolineEntry:
    return "rt.trampoline.entry";
  case kSpanTrampolineExit:
    return "rt.trampoline.exit";
  case kSpanNativeBody:
    return "native.body";
  case kSpanPinAcquire:
    return "jni.pin.acquire";
  case kSpanPinSharedAcquire:
    return "jni.pin.shared_acquire";
  case kSpanPinRelease:
    return "jni.pin.release";
  case kSpanCheckLoad:
    return "mte.check.load";
  case kSpanCheckStore:
    return "mte.check.store";
  case kSpanCheckRange:
    return "mte.check.range";
  case kSpanRegion:
    return "jni.region";
  case kSpanHeapAlloc:
    return "rt.heap.alloc";
  case kSpanRunClang:
    return "workloads.clang.run";
  case kSpanRunText:
    return "workloads.text.run";
  case kSpanRunPdf:
    return "workloads.pdf.run";
  case kSpanRunHtmlDom:
    return "workloads.html_dom.run";
  case kNumSpans:
    break;
  }
  return "?";
}

Layer layerOf(SpanId Id) {
  switch (Id) {
  case kSpanCall:
    return Layer::Call;
  case kSpanTrampolineEntry:
  case kSpanTrampolineExit:
    return Layer::Trampoline;
  case kSpanNativeBody:
    return Layer::Body;
  case kSpanPinAcquire:
  case kSpanPinSharedAcquire:
  case kSpanPinRelease:
    return Layer::Pin;
  case kSpanCheckLoad:
  case kSpanCheckStore:
  case kSpanCheckRange:
    return Layer::Check;
  case kSpanRegion:
    return Layer::Region;
  case kSpanHeapAlloc:
    return Layer::Heap;
  case kSpanRunClang:
  case kSpanRunText:
  case kSpanRunPdf:
  case kSpanRunHtmlDom:
    return Layer::Workloads;
  case kNumSpans:
    break;
  }
  return Layer::Call;
}

const char *layerName(Layer L) {
  switch (L) {
  case Layer::Call:
    return "call";
  case Layer::Trampoline:
    return "rt.trampoline";
  case Layer::Pin:
    return "jni.pin";
  case Layer::Check:
    return "mte.check";
  case Layer::Region:
    return "jni.region";
  case Layer::Heap:
    return "rt.heap";
  case Layer::Workloads:
    return "workloads";
  case Layer::Body:
    return "native.body";
  case Layer::kNumLayers:
    break;
  }
  return "?";
}

void SpanStats::merge(const SpanStats &Other) {
  Count += Other.Count;
  TotalNanos += Other.TotalNanos;
  SelfNanos += Other.SelfNanos;
  Units += Other.Units;
  Durations.merge(Other.Durations);
}

SpanTracer::SpanTracer(uint64_t SampleEvery, size_t MaxRaw)
    : SampleEvery(SampleEvery ? SampleEvery : 1), MaxRaw(MaxRaw) {
  Raw.reserve(MaxRaw);
}

void SpanTracer::beginCall(uint64_t Id) {
  CallId = Id;
  Sampled = Id % SampleEvery == 0 && Raw.size() < MaxRaw;
}

void SpanTracer::begin(SpanId Id, uint64_t NowNanos) {
  if (Depth == kMaxDepth) {
    std::fprintf(stderr, "perfbench: spans nested deeper than %u\n",
                 kMaxDepth);
    std::abort();
  }
  Stack[Depth++] = {Id, NowNanos, 0, NextSeq++};
}

void SpanTracer::end(uint64_t NowNanos, uint64_t Units) {
  if (Depth == 0) {
    std::fprintf(stderr, "perfbench: span end without a begin\n");
    std::abort();
  }
  const Open &S = Stack[--Depth];
  uint64_t Duration = NowNanos - S.StartNanos;
  SpanStats &St = Stats[S.Id];
  ++St.Count;
  St.TotalNanos += Duration;
  St.SelfNanos += Duration - S.ChildNanos;
  St.Units += Units;
  St.Durations.record(Duration);
  if (Depth > 0)
    Stack[Depth - 1].ChildNanos += Duration;
  if (Sampled && Raw.size() < MaxRaw)
    Raw.push_back({S.StartNanos, NowNanos, CallId, S.Seq,
                   Depth > 0 ? Stack[Depth - 1].Seq : 0, S.Id});
}

bool writeChromeTrace(const std::string &Path,
                      const std::vector<const SpanTracer *> &Threads,
                      uint64_t EpochNanos, const std::string &OtherDataJson) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\":\"ns\",\"otherData\":%s,"
                  "\"traceEvents\":[",
               OtherDataJson.c_str());
  bool First = true;
  for (size_t T = 0; T < Threads.size(); ++T) {
    for (const RawSpan &S : Threads[T]->raw()) {
      // Chrome trace timestamps are microseconds; keep ns precision.
      std::fprintf(F,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"call\":%" PRIu64
                   ",\"span\":%u,\"parent\":%u}}",
                   First ? "" : ",", spanName(S.Id), T,
                   double(S.StartNanos - EpochNanos) / 1e3,
                   double(S.EndNanos - S.StartNanos) / 1e3, S.CallId, S.Seq,
                   S.Parent);
      First = false;
    }
  }
  std::fprintf(F, "\n]}\n");
  bool Ok = std::ferror(F) == 0;
  Ok = std::fclose(F) == 0 && Ok;
  return Ok;
}

} // namespace perfbench
