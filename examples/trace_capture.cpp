//===- trace_capture.cpp - Capture a Perfetto-loadable trace ------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Runs a short MTE4JNI workload with the flight recorder in Full mode and
// writes mte4jni_trace.json — open it in chrome://tracing or
// https://ui.perfetto.dev to see the JNI Get/Release slices, tag
// allocator activity and GC pauses on a timeline, the way an Android
// engineer would profile the real thing.
//
//===----------------------------------------------------------------------===//

#include "mte4jni/api/Session.h"
#include "mte4jni/mte/Access.h"
#include "mte4jni/workloads/Workload.h"

#include <cstdio>

using namespace mte4jni;

int main() {
  api::SessionConfig Config;
  Config.Protection = api::Scheme::Mte4JniSync;
  Config.BackgroundGc = true;
  Config.GcIntervalMillis = 2;
  Config.TraceMode = support::FlightMode::Full;
  api::Session S(Config);
  {
    api::ScopedAttach Main(S, "main");
    rt::HandleScope Scope(S.runtime());

    // A few JNI-heavy rounds plus a workload, so the trace has texture.
    jni::jarray A = Main.env().NewIntArray(Scope, 4096);
    for (int Round = 0; Round < 20; ++Round) {
      rt::callNative(Main.thread(), rt::NativeKind::Regular, "round", [&] {
        jni::jboolean IsCopy;
        auto P = Main.env().GetIntArrayElements(A, &IsCopy);
        for (int I = 0; I < 4096; I += 8)
          mte::store<jni::jint>(P + I, I);
        Main.env().ReleaseIntArrayElements(A, P, 0);
        return 0;
      });
    }

    auto W = workloads::makeWorkload("Photo Filter");
    workloads::WorkloadContext Ctx{S, Main.env(), Main.thread(), Scope, 1};
    W->prepare(Ctx);
    for (int I = 0; I < 3; ++I)
      W->run(Ctx);
  }

  const char *Path = "mte4jni_trace.json";
  if (!S.writeTraceJson(Path)) {
    std::perror(Path);
    return 1;
  }
  std::printf("captured %llu events -> %s\n",
              static_cast<unsigned long long>(
                  support::FlightRecorder::eventCount()),
              Path);
  std::printf("open in chrome://tracing or https://ui.perfetto.dev\n");
  return 0;
}
