//===- Clients.cpp - The benchmark's workloads and their native calls -----------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Clients.h"

#include "mte4jni/mte/Access.h"
#include "mte4jni/rt/Trampoline.h"
#include "mte4jni/support/MathExtras.h"
#include "mte4jni/support/Timer.h"

#include <cstdio>
#include <cstdlib>

namespace perfbench {

using namespace mte4jni;
using workloads::mixChecksum;

namespace {

// pin_churn: copies of 2^1..2^12 ints, write-backs of 2^4..2^11 ints.
constexpr unsigned kCopyInputs = 12;
constexpr jni::jsize kCopyInts = 1 << kCopyInputs;
constexpr unsigned kSharedInts = 1024;
constexpr unsigned kWriteBackInputs = 8;
constexpr jni::jsize kWriteBackInts = 1 << (4 + kWriteBackInputs - 1);
constexpr unsigned kPatternStride = 256;
// jni_scan: n = (input + 2) * kElementStep checked loads cycling over
// [0, kElementWindow) and as many stores cycling over [kElementWindow,
// 2 * kElementWindow), so no call reads what another wrote. n is sized like
// the library bodies (~1-4 ms), so checked access is a real share of the
// workload; the 64 KiB array stays in the core's cache, so the call
// measures checked access rather than the host's memory bandwidth.
constexpr unsigned kElementInputs = 4;
constexpr jni::jsize kElementStep = 16384;
constexpr jni::jsize kElementWindow = 8192;
// server_gc: the bench_server fixture sizes.
constexpr jni::jsize kServerInts = 1024;
constexpr jni::jsize kRegionWindow = 256;
constexpr jni::jsize kGarbageInts = 128;
const char *const kServerString =
    "tenant request string payload: forty-four ch";
// Planted accesses: 18 ints = 72 payload bytes, granule extent 80, then the
// next pad's 16-byte header and payload.
constexpr jni::jsize kProbeInts = 18;
constexpr jni::jsize kPadInts = 256;
constexpr unsigned kOobReadSpan = 64;
constexpr unsigned kOobWriteSpan = 48;

unsigned plantInputs(Plant P) {
  switch (P) {
  case Plant::OobRead:
    return kOobReadSpan;
  case Plant::OobWrite:
    return kOobWriteSpan;
  case Plant::UseAfterRelease:
    return kProbeInts * sizeof(jni::jint);
  case Plant::SubGranuleRead:
    return 16 - kProbeInts * sizeof(jni::jint) % 16;
  }
  return 1;
}

uint64_t now() { return support::monotonicNanos(); }

/// Ints a call of kind \p K copies out into Client::Scratch. call() sums
/// them after its end clock read, so the benchmark's own check of the
/// copied data is not part of the call's latency.
unsigned copiedOutInts(CallKind K) {
  switch (K) {
  case CallKind::ArrayPinRead:
    return kServerInts;
  case CallKind::RegionCopy:
    return kRegionWindow;
  default:
    return 0;
  }
}

/// Client threads may fail while others run: leave without running
/// static destructors under their feet.
[[noreturn]] void fail(const char *Message) {
  std::fprintf(stderr, "perfbench: %s\n", Message);
  std::fflush(nullptr);
  std::_Exit(1);
}

/// Fixture contents: a fixed function of the seed and the index.
jni::jint fill(uint64_t Seed, uint64_t I) {
  uint64_t X = (Seed + I) * 0x9e3779b97f4a7c15ULL;
  X ^= X >> 29;
  return static_cast<jni::jint>(X * 0xbf58476d1ce4e5b9ULL >> 32);
}

/// A new int array whose first \p Filled elements hold fill(Seed, I). The
/// values go in through SetIntArrayRegion, which brackets the payload write
/// against the background GC's verify pass.
jni::jarray newFilledArray(jni::JniEnv &Env, rt::HandleScope &Scope,
                           jni::jsize Ints, jni::jsize Filled, uint64_t Seed) {
  jni::jarray A = Env.NewIntArray(Scope, Ints);
  if (!A)
    fail("cannot allocate a fixture array");
  std::vector<jni::jint> Values(static_cast<size_t>(Filled));
  for (jni::jsize I = 0; I < Filled; ++I)
    Values[static_cast<size_t>(I)] = fill(Seed, I);
  Env.SetIntArrayRegion(A, 0, Filled, Values.data());
  return A;
}

/// Times the enclosing scope as span \p Id when tracing.
class Span {
public:
  Span(SpanTracer *Tr, SpanId Id, uint64_t Units = 0) : Tr(Tr), Units(Units) {
    if (Tr)
      Tr->begin(Id, now());
  }
  ~Span() {
    if (Tr)
      Tr->end(now(), Units);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  SpanTracer *Tr;
  uint64_t Units;
};

/// rt::callNative with the trampoline spans: the caller opened the entry
/// span at its start time; the body's first line closes it and its last
/// line opens the exit span, which the caller closes at return.
template <typename Fn>
uint64_t nativeCall(rt::JavaThread &Thread, rt::NativeKind Kind,
                    const char *Name, SpanTracer *Tr, Fn &&Body) {
  if (!Tr)
    return rt::callNative(Thread, Kind, Name, Body);
  return rt::callNative(Thread, Kind, Name, [&] {
    uint64_t T1 = now();
    Tr->end(T1);
    Tr->begin(kSpanNativeBody, T1);
    uint64_t Sum = Body();
    uint64_t T2 = now();
    Tr->end(T2);
    Tr->begin(kSpanTrampolineExit, T2);
    return Sum;
  });
}

/// The span a call of kind \p K opens first, at its start time.
SpanId outerSpan(CallKind K) {
  switch (K) {
  case CallKind::Clang:
    return kSpanRunClang;
  case CallKind::Text:
    return kSpanRunText;
  case CallKind::Pdf:
    return kSpanRunPdf;
  case CallKind::HtmlDom:
    return kSpanRunHtmlDom;
  default:
    return kSpanTrampolineEntry;
  }
}

} // namespace

const std::vector<WorkloadSpec> &allWorkloads() {
  static const std::vector<WorkloadSpec> Specs = {
      {WorkloadId::PinChurn,
       "pin_churn",
       /*BackgroundGc=*/false,
       {{CallKind::Fig5Copy, 2}, {CallKind::SharedRead, 1},
        {CallKind::WriteBack, 1}},
       {Plant::OobRead, Plant::OobWrite, Plant::UseAfterRelease},
       /*CallsPerThreadPerSecond=*/800'000,
       /*WarmupCalls=*/20'000},
      {WorkloadId::JniScan,
       "jni_scan",
       /*BackgroundGc=*/false,
       {{CallKind::Clang, 1},
        {CallKind::Text, 1},
        {CallKind::Pdf, 1},
        {CallKind::HtmlDom, 1},
        {CallKind::PerElement, 1}},
       {Plant::OobRead, Plant::SubGranuleRead},
       /*CallsPerThreadPerSecond=*/700,
       /*WarmupCalls=*/20},
      // The bench_server request mix (40/25/20/15), in blocks of 20.
      {WorkloadId::ServerGc,
       "server_gc",
       /*BackgroundGc=*/true,
       {{CallKind::ArrayPinRead, 8},
        {CallKind::StringScan, 5},
        {CallKind::RegionCopy, 4},
        {CallKind::HtmlDom, 3}},
       {Plant::OobRead, Plant::UseAfterRelease},
       /*CallsPerThreadPerSecond=*/19'000,
       /*WarmupCalls=*/2'000},
  };
  return Specs;
}

const WorkloadSpec *findWorkload(std::string_view Name) {
  for (const WorkloadSpec &W : allWorkloads())
    if (Name == W.Name)
      return &W;
  return nullptr;
}

unsigned numInputs(CallKind K) {
  switch (K) {
  case CallKind::Fig5Copy:
    return kCopyInputs;
  case CallKind::WriteBack:
    return kWriteBackInputs;
  case CallKind::PerElement:
    return kElementInputs;
  case CallKind::RegionCopy:
    return kServerInts - kRegionWindow + 1;
  default:
    return 1;
  }
}

SharedFixtures makeSharedFixtures(jni::JniEnv &Env, rt::HandleScope &Scope,
                                  uint64_t Seed) {
  SharedFixtures F;
  F.SharedArray =
      newFilledArray(Env, Scope, kSharedInts, kSharedInts, Seed ^ 0x5a);
  return F;
}

// ---- CallSequence -----------------------------------------------------------

CallSequence::CallSequence(const WorkloadSpec &Spec, uint64_t Seed)
    : Spec(Spec), Rng(Seed) {
  for (const auto &[Kind, Weight] : Spec.Mix)
    Block.insert(Block.end(), Weight, Kind);
  BlockPos = Block.size();
}

Call CallSequence::next() {
  if (Index % kPlantEvery == 0)
    PlantAt = Index + Rng.nextBelow(kPlantEvery);
  Call C;
  if (Index == PlantAt) {
    C.IsPlant = true;
    C.P = Spec.Plants[(Index / kPlantEvery) % Spec.Plants.size()];
    C.Input = static_cast<unsigned>(Rng.nextBelow(plantInputs(C.P)));
  } else {
    if (BlockPos == Block.size()) {
      for (size_t I = Block.size(); I > 1; --I)
        std::swap(Block[I - 1], Block[Rng.nextBelow(I)]);
      BlockPos = 0;
    }
    C.Kind = Block[BlockPos++];
    C.Input = static_cast<unsigned>(Rng.nextBelow(numInputs(C.Kind)));
  }
  ++Index;
  return C;
}

// ---- Client -----------------------------------------------------------------

Client::Client(api::Session &S, api::ScopedAttach &Me, rt::HandleScope &Scope,
               const WorkloadSpec &Spec, const SharedFixtures &Shared,
               uint64_t FixtureSeed)
    : S(S), Me(Me), Shared(Shared),
      Ctx{S, Me.env(), Me.thread(), Scope, FixtureSeed} {
  jni::JniEnv &Env = Me.env();
  auto NewFilled = [&](jni::jsize Ints, jni::jsize Filled, uint64_t Salt) {
    return newFilledArray(Env, Scope, Ints, Filled, FixtureSeed ^ Salt);
  };

  switch (Spec.Id) {
  case WorkloadId::PinChurn:
    Src = NewFilled(kCopyInts, kCopyInts, 1);
    Dst = NewFilled(kCopyInts, 0, 0);
    WriteBackArray = NewFilled(kWriteBackInts, 0, 0);
    Pattern.resize(kPatternStride * kWriteBackInputs + kWriteBackInts);
    for (size_t I = 0; I < Pattern.size(); ++I)
      Pattern[I] = fill(FixtureSeed ^ 2, I);
    break;
  case WorkloadId::JniScan:
    Clang = workloads::makeWorkload("Clang");
    Text = workloads::makeWorkload("Text Processing");
    Pdf = workloads::makeWorkload("PDF Renderer");
    Html = workloads::makeWorkload("HTML5 DOM Strings");
    if (!Clang || !Text || !Pdf || !Html)
      fail("a library workload is missing");
    for (workloads::Workload *W : {Clang.get(), Text.get(), Pdf.get(),
                                   Html.get()})
      W->prepare(Ctx);
    ElementArray = NewFilled(2 * kElementWindow, kElementWindow, 3);
    break;
  case WorkloadId::ServerGc:
    ServerArray = NewFilled(kServerInts, kServerInts, 4);
    ServerString = Env.NewStringUTF(Scope, kServerString);
    Html = workloads::makeWorkload("HTML5 DOM Strings");
    if (!ServerString || !Html)
      fail("cannot create the server fixtures");
    Html->prepare(Ctx);
    Scratch.resize(kServerInts);
    break;
  }

  // The probe sits between two pads no call ever pins, so an access a few
  // bytes past its granule extent lands in the next pad's header or payload
  // (tag 0 under MTE4JNI) and is caught deterministically. Adjacency holds
  // unless a TLAB ends between the three allocations; then allocate again.
  const bool CheckAdjacency = S.mtePolicy() != nullptr;
  for (unsigned Attempt = 0;; ++Attempt) {
    (void)NewFilled(kPadInts, 0, 0);
    Probe = NewFilled(kProbeInts, kProbeInts, 5);
    jni::jarray After = NewFilled(kPadInts, 0, 0);
    ProbeExtent = static_cast<int64_t>(
        support::alignTo(Probe->dataBytes(), mte::kGranuleSize));
    if (!CheckAdjacency ||
        reinterpret_cast<uint64_t>(After) ==
            Probe->dataAddress() + static_cast<uint64_t>(ProbeExtent))
      break;
    if (Attempt == 3)
      fail("probe array is not adjacent to its pad");
  }
}

CallResult Client::call(const Call &C, uint64_t StartNanos, uint64_t CallId,
                        SpanTracer *Tr) {
  if (Tr) {
    Tr->beginCall(CallId);
    Tr->begin(kSpanCall, StartNanos);
    Tr->begin(C.IsPlant ? kSpanTrampolineEntry : outerSpan(C.Kind),
              StartNanos);
  }
  uint64_t Sum =
      C.IsPlant ? planted(C.P, C.Input, Tr) : benign(C.Kind, C.Input, Tr);
  uint64_t EndNanos = now();
  if (Tr) {
    Tr->end(EndNanos); // trampoline exit, or the workload's run
    Tr->end(EndNanos); // the call
  }
  if (!C.IsPlant)
    for (unsigned I = 0, N = copiedOutInts(C.Kind); I < N; ++I)
      Sum += static_cast<uint32_t>(Scratch[I]);
  return {Sum, EndNanos};
}

uint64_t Client::benign(CallKind K, unsigned Input, SpanTracer *Tr) {
  jni::JniEnv &Env = Me.env();
  rt::JavaThread &Thread = Me.thread();
  jni::jboolean IsCopy;
  switch (K) {
  case CallKind::Fig5Copy:
    return nativeCall(
        Thread, rt::NativeKind::Regular, "pc_fig5_copy", Tr, [&] {
          const uint64_t Len = uint64_t(2) << Input;
          auto SrcP = [&] {
            Span Sp(Tr, kSpanPinAcquire);
            return Env.GetPrimitiveArrayCritical(Src, &IsCopy)
                .cast<jni::jint>();
          }();
          auto DstP = [&] {
            Span Sp(Tr, kSpanPinAcquire);
            return Env.GetPrimitiveArrayCritical(Dst, &IsCopy)
                .cast<jni::jint>();
          }();
          {
            Span Sp(Tr, kSpanCheckRange, Len * sizeof(jni::jint));
            mte::copyBytes(DstP.cast<void>(), SrcP.cast<const void>(),
                           Len * sizeof(jni::jint));
          }
          uint64_t Sum = mixChecksum(
              Len, static_cast<uint32_t>(mte::load<jni::jint>(DstP)));
          Sum = mixChecksum(Sum, static_cast<uint32_t>(mte::load<jni::jint>(
                                     DstP + ptrdiff_t(Len - 1))));
          {
            Span Sp(Tr, kSpanPinRelease);
            Env.ReleasePrimitiveArrayCritical(Dst, DstP.cast<void>(), 0);
          }
          {
            Span Sp(Tr, kSpanPinRelease);
            Env.ReleasePrimitiveArrayCritical(Src, SrcP.cast<void>(),
                                              jni::JNI_ABORT);
          }
          return Sum;
        });
  case CallKind::SharedRead:
    return nativeCall(
        Thread, rt::NativeKind::Regular, "pc_fig6_read", Tr, [&] {
          auto P = [&] {
            Span Sp(Tr, kSpanPinSharedAcquire);
            return Env.GetPrimitiveArrayCritical(Shared.SharedArray, &IsCopy)
                .cast<jni::jint>();
          }();
          {
            Span Sp(Tr, kSpanCheckRange, kSharedInts * sizeof(jni::jint));
            mte::checkReadRange(P.cast<const void>(),
                                kSharedInts * sizeof(jni::jint));
          }
          const jni::jint *Raw = P.raw();
          uint64_t Sum = 0;
          for (unsigned I = 0; I < kSharedInts; ++I)
            Sum += static_cast<uint32_t>(Raw[I]);
          {
            Span Sp(Tr, kSpanPinRelease);
            Env.ReleasePrimitiveArrayCritical(Shared.SharedArray,
                                              P.cast<void>(), jni::JNI_ABORT);
          }
          return Sum;
        });
  case CallKind::WriteBack:
    return nativeCall(
        Thread, rt::NativeKind::Regular, "pc_write_back", Tr, [&] {
          const uint64_t Len = uint64_t(16) << Input;
          auto P = [&] {
            Span Sp(Tr, kSpanPinAcquire);
            return Env.GetIntArrayElements(WriteBackArray, &IsCopy);
          }();
          {
            Span Sp(Tr, kSpanCheckRange, Len * sizeof(jni::jint));
            mte::writeBytes(P.cast<void>(),
                            Pattern.data() + Input * kPatternStride,
                            Len * sizeof(jni::jint));
          }
          uint64_t Sum = mixChecksum(
              Len, static_cast<uint32_t>(mte::load<jni::jint>(P)));
          Sum = mixChecksum(Sum, static_cast<uint32_t>(mte::load<jni::jint>(
                                     P + ptrdiff_t(Len - 1))));
          {
            Span Sp(Tr, kSpanPinRelease);
            Env.ReleaseIntArrayElements(WriteBackArray, P, 0);
          }
          return Sum;
        });
  case CallKind::Clang:
    return Clang->run(Ctx);
  case CallKind::Text:
    return Text->run(Ctx);
  case CallKind::Pdf:
    return Pdf->run(Ctx);
  case CallKind::HtmlDom:
    return Html->run(Ctx);
  case CallKind::PerElement:
    return nativeCall(
        Thread, rt::NativeKind::Regular, "js_per_element", Tr, [&] {
          const jni::jsize N = (jni::jsize(Input) + 2) * kElementStep;
          auto P = [&] {
            Span Sp(Tr, kSpanPinAcquire);
            return Env.GetPrimitiveArrayCritical(ElementArray, &IsCopy)
                .cast<jni::jint>();
          }();
          uint64_t Sum = 0;
          {
            Span Sp(Tr, kSpanCheckLoad, uint64_t(N));
            for (jni::jsize I = 0; I < N; ++I)
              Sum += static_cast<uint32_t>(
                  mte::load<jni::jint>(P + (I & (kElementWindow - 1))));
          }
          {
            Span Sp(Tr, kSpanCheckStore, uint64_t(N));
            for (jni::jsize I = 0; I < N; ++I)
              mte::store<jni::jint>(
                  P + (kElementWindow + (I & (kElementWindow - 1))),
                  static_cast<jni::jint>(Sum) ^ I);
          }
          Sum = mixChecksum(
              Sum, static_cast<uint32_t>(mte::load<jni::jint>(
                       P + (kElementWindow + ((N - 1) & (kElementWindow - 1))))));
          {
            Span Sp(Tr, kSpanPinRelease);
            Env.ReleasePrimitiveArrayCritical(ElementArray, P.cast<void>(),
                                              0);
          }
          return Sum;
        });
  case CallKind::ArrayPinRead:
    return nativeCall(
        Thread, rt::NativeKind::Regular, "srv_array_pin", Tr, [&] {
          auto P = [&] {
            Span Sp(Tr, kSpanPinAcquire);
            return Env.GetIntArrayElements(ServerArray, &IsCopy);
          }();
          {
            Span Sp(Tr, kSpanCheckRange, kServerInts * sizeof(jni::jint));
            mte::readBytes(Scratch.data(), P.cast<const void>(),
                           kServerInts * sizeof(jni::jint));
          }
          {
            Span Sp(Tr, kSpanPinRelease);
            Env.ReleaseIntArrayElements(ServerArray, P, jni::JNI_ABORT);
          }
          return uint64_t(0); // Scratch is checked by call()
        });
  case CallKind::StringScan:
    return nativeCall(
        Thread, rt::NativeKind::CriticalNative, "srv_string_crit", Tr, [&] {
          jni::jsize Len = Env.GetStringLength(ServerString);
          auto P = [&] {
            Span Sp(Tr, kSpanPinAcquire);
            return Env.GetStringCritical(ServerString, &IsCopy);
          }();
          uint64_t Sum = 0;
          {
            // The bench_server scan: a safepoint checkpoint every 64
            // chars (the string stays pinned across it).
            Span Sp(Tr, kSpanCheckLoad, uint64_t(Len));
            for (jni::jsize I = 0; I < Len; ++I) {
              if ((I & 63) == 0)
                S.runtime().safepointPoll();
              Sum += mte::load<const jni::jchar>(P + I);
            }
          }
          {
            Span Sp(Tr, kSpanPinRelease);
            Env.ReleaseStringCritical(ServerString, P);
          }
          return Sum;
        });
  case CallKind::RegionCopy:
    return nativeCall(
        Thread, rt::NativeKind::Regular, "srv_region_copy", Tr, [&] {
          const jni::jsize Start = static_cast<jni::jsize>(Input);
          {
            Span Sp(Tr, kSpanRegion);
            Env.GetIntArrayRegion(ServerArray, Start, kRegionWindow,
                                  Scratch.data());
          }
          {
            Span Sp(Tr, kSpanRegion);
            Env.SetIntArrayRegion(ServerArray, Start, kRegionWindow,
                                  Scratch.data());
          }
          {
            // Per-request garbage, so the background GC has sweep work.
            Span Sp(Tr, kSpanHeapAlloc);
            Env.PushLocalFrame(4);
            (void)Env.NewIntArrayLocal(kGarbageInts);
            Env.PopLocalFrame(nullptr);
          }
          return uint64_t(0); // Scratch is checked by call()
        });
  case CallKind::kNumKinds:
    break;
  }
  fail("unknown call kind");
}

uint64_t Client::planted(Plant P, unsigned Input, SpanTracer *Tr) {
  jni::JniEnv &Env = Me.env();
  return nativeCall(
      Me.thread(), rt::NativeKind::Regular, "illicit_access", Tr, [&] {
        jni::jboolean IsCopy;
        auto Ptr = [&] {
          Span Sp(Tr, kSpanPinAcquire);
          return Env.GetPrimitiveArrayCritical(Probe, &IsCopy)
              .cast<jni::jbyte>();
        }();
        uint64_t Sum = static_cast<uint8_t>(mte::load<jni::jbyte>(Ptr));
        switch (P) {
        case Plant::OobRead:
          Sum += static_cast<uint8_t>(
              mte::load<jni::jbyte>(Ptr + (ProbeExtent + Input)));
          break;
        case Plant::OobWrite:
          // Into the pad's payload, past its header, with the value the
          // never-written pad already holds.
          mte::store<jni::jbyte>(Ptr + (ProbeExtent + 16 + Input), 0);
          break;
        case Plant::UseAfterRelease:
          break;
        case Plant::SubGranuleRead:
          Sum += static_cast<uint8_t>(mte::load<jni::jbyte>(
              Ptr + (int64_t(Probe->dataBytes()) + Input)));
          break;
        }
        {
          Span Sp(Tr, kSpanPinRelease);
          Env.ReleasePrimitiveArrayCritical(Probe, Ptr.cast<void>(),
                                            jni::JNI_ABORT);
        }
        if (P == Plant::UseAfterRelease)
          Sum += static_cast<uint8_t>(mte::load<jni::jbyte>(Ptr + Input));
        return Sum;
      });
}

void Client::allocateGarbage(unsigned Arrays) {
  jni::JniEnv &Env = Me.env();
  rt::callNative(Me.thread(), rt::NativeKind::Regular, "warm_heap", [&] {
    Env.PushLocalFrame(static_cast<jni::jint>(Arrays));
    for (unsigned I = 0; I < Arrays; ++I)
      (void)Env.NewIntArrayLocal(kGarbageInts);
    Env.PopLocalFrame(nullptr);
    return 0;
  });
}

} // namespace perfbench
