//===- Server.h - Tenant-scale JNI request server harness ----------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A multi-tenant request-stream driver over one protection Session: N
/// logical tenants × M Java worker threads push a mixed Table-1 request
/// stream (array pins, string criticals, region copies, a string-critical
/// HTML parse, and optionally rogue out-of-bounds probes) at a
/// configurable target rate.
///
/// The paper measures batch Geekbench clones; this harness measures what a
/// production runtime actually serves — sustained concurrent traffic —
/// and makes the signals that matter at that scale first-class:
///
///   * Every request is timed into per-tenant metric namespaces
///     (`server/tenant<i>/request_nanos`, `.../requests`, `.../faults`)
///     plus global `server/...` aggregates, so tail percentiles are
///     attributable to the tenant that suffered them.
///   * Pacing is OPEN-LOOP: each worker schedules arrivals from a Poisson
///     process at its share of the target rate and charges a request from
///     its *scheduled* arrival, not its actual start — a GC pause that
///     delays ten queued requests shows up in ten latencies (no
///     coordinated omission). TargetRatePerSec == 0 degrades to a
///     closed-loop throughput probe.
///   * MTE faults raised while a worker serves a tenant are attributed to
///     that tenant via a per-thread fault hook.
///   * A SnapshotStreamer can append one metrics snapshot per interval to
///     a JSONL file while the server runs, so `m4jstat watch` can inspect
///     a long-running server live.
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_SERVER_SERVER_H
#define MTE4JNI_SERVER_SERVER_H

#include "mte4jni/api/Session.h"
#include "mte4jni/server/SnapshotStreamer.h"
#include "mte4jni/support/Metrics.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mte4jni::server {

/// One request category of the mixed stream. The first three are the
/// Table-1 interface classes, HtmlParse is the string-heavy parse profile,
/// Rogue is an intentionally out-of-bounds native read (a buggy library).
enum class RequestKind : uint8_t {
  ArrayPin = 0,   ///< Get/ReleaseIntArrayElements + bulk checked read
  StringCritical, ///< GetStringCritical + per-char scan + Release
  RegionCopy,     ///< Get/SetIntArrayRegion round trip + local-frame garbage
  HtmlParse,      ///< workloads "HTML5 DOM Strings" run (string criticals)
  Rogue,          ///< near-OOB read past a pinned array's granule extent
  kNumKinds
};

const char *requestKindName(RequestKind Kind);

/// Relative weights of the request mix (any non-negative integers; they
/// are normalised against their sum). Defaults model a mixed app-server
/// profile with a noticeable string tenant and no attackers.
struct RequestMix {
  unsigned ArrayPin = 40;
  unsigned StringCritical = 25;
  unsigned RegionCopy = 20;
  unsigned HtmlParse = 15;
  unsigned Rogue = 0;

  unsigned total() const {
    return ArrayPin + StringCritical + RegionCopy + HtmlParse + Rogue;
  }
};

struct ServerConfig {
  /// Logical tenants: each owns a metric namespace server/tenant<i>/.
  unsigned NumTenants = 4;
  /// Java worker threads, assigned to tenants round-robin. More workers
  /// than tenants means a tenant is served by several threads.
  unsigned NumWorkers = 8;
  uint64_t DurationMillis = 1000;
  /// Aggregate open-loop arrival rate across all workers (requests/sec).
  /// 0 = closed loop: every worker issues back-to-back requests.
  double TargetRatePerSec = 0;
  RequestMix Mix;
  uint64_t Seed = 1;

  /// Fixture sizes (per worker).
  unsigned ArrayInts = 1024;

  /// When non-empty: stream one metrics snapshot per interval to this
  /// JSONL file while the server runs (see SnapshotStreamer).
  std::string StreamPath;
  uint32_t StreamIntervalMillis = 250;
  /// Appended to each stream record ("scheme": ...) so multi-phase runs
  /// into one file stay attributable.
  std::string StreamLabel;
  bool StreamAppend = false;
};

/// Per-tenant end-of-run rollup (values read back from the tenant's
/// metric namespace once workers are quiescent, so they are exact).
struct TenantSummary {
  unsigned Tenant = 0;
  uint64_t Requests = 0;
  uint64_t Faults = 0;
  double MeanNanos = 0;
  uint64_t P50Nanos = 0;  ///< bucket upper bounds (log2 histogram)
  uint64_t P99Nanos = 0;
  uint64_t P999Nanos = 0;
};

struct ServerResult {
  double DurationSeconds = 0;
  uint64_t Requests = 0;
  uint64_t Faults = 0;
  /// JNI boundary crossings (callNative entries) — one per request.
  uint64_t JniCrossings = 0;
  /// Open-loop only: arrivals that started more than one interarrival
  /// late (the worker fell behind its schedule).
  uint64_t LateArrivals = 0;
  uint64_t StreamedSnapshots = 0;

  double RequestsPerSec = 0;
  double CrossingsPerSec = 0;
  double FaultsPerSec = 0;

  double MeanNanos = 0;
  uint64_t P50Nanos = 0;
  uint64_t P99Nanos = 0;
  uint64_t P999Nanos = 0;

  std::vector<TenantSummary> Tenants;
};

/// Cached metric handles for one tenant namespace. Resolving goes through
/// the registry mutex, so workers resolve once at start-up, never per
/// request.
struct TenantMetrics {
  support::Counter *Requests = nullptr;
  support::Counter *Faults = nullptr;
  support::Histogram *RequestNanos = nullptr;

  /// Handles for `server/tenant<i>/...`. References live forever (the
  /// registry is leaked), so the pointers never dangle.
  static TenantMetrics of(unsigned Tenant);
};

/// Runs the configured request stream against \p S (which the caller
/// configured for one protection scheme, typically with BackgroundGc on)
/// and blocks until the duration elapses and all workers drained. Installs
/// a process-wide MTE fault hook for the run (restored on return) to
/// attribute faults to tenants.
ServerResult runServer(api::Session &S, const ServerConfig &Config);

} // namespace mte4jni::server

#endif // MTE4JNI_SERVER_SERVER_H
