//===- Access.cpp - Tag-checked memory access -----------------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/mte/Access.h"

#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/support/Metrics.h"
#include "mte4jni/support/Syscall.h"
#include "mte4jni/support/TraceRing.h"

#include <algorithm>
#include <cstring>

namespace mte4jni::mte {
namespace detail {

namespace {

/// Cold-path metrics behind the paper's Figure 5/8 breakdowns: how
/// mismatches split across TCF modes and why the per-thread region cache
/// missed. Checked loads, stores, granules and cache hits are counted in
/// the caller's ThreadState instead (MteSystem derives the
/// mte/access/{checked_*,region_cache_hit} counters from those cells).
struct AccessMetrics {
  support::Counter &MismatchSync =
      support::Metrics::counter("mte/access/mismatch_sync");
  support::Counter &MismatchAsync =
      support::Metrics::counter("mte/access/mismatch_async");
  support::Counter &RegionCacheMiss =
      support::Metrics::counter("mte/access/region_cache_miss");
  /// Why the per-thread region cache missed (fast-path attribution):
  /// cold = nothing cached yet; epoch_stale = a region was published or
  /// retired since the cache fill; out_of_range = the access left the
  /// cached region. Their sum can undercount region_cache_miss by the
  /// mismatch fall-throughs, which are not misses.
  support::Counter &MissCold =
      support::Metrics::counter("mte/access/cache_miss_reason/cold");
  support::Counter &MissEpochStale =
      support::Metrics::counter("mte/access/cache_miss_reason/epoch_stale");
  support::Counter &MissOutOfRange =
      support::Metrics::counter("mte/access/cache_miss_reason/out_of_range");
};

AccessMetrics &accessMetrics() {
  static AccessMetrics M;
  return M;
}

/// Classifies a slow-path entry against the thread's region cache. Called
/// only on cold paths; when every fast-path precondition held, the entry
/// was a mismatch fall-through, not a cache miss, and nothing is counted.
void countRegionCacheMissReason(ThreadState &TS, uint64_t Address,
                                uint64_t Bytes) {
  AccessMetrics &AM = accessMetrics();
  const TaggedRegion *Cached = TS.cachedRegion();
  if (Cached == nullptr) {
    AM.MissCold.add();
    return;
  }
  if (TS.cachedRegionEpoch() !=
      RegionPublishEpoch.load(std::memory_order_acquire)) {
    AM.MissEpochStale.add();
    return;
  }
  if (!(Cached->contains(Address) && Bytes <= Cached->end() - Address))
    AM.MissOutOfRange.add();
}

/// Builds and routes a mismatch according to the thread's TCF mode.
M4J_NOINLINE void reportMismatch(ThreadState &TS, uint64_t Address,
                                 TagValue PointerTag, TagValue MemoryTag,
                                 uint32_t Size, bool IsWrite) {
  MteSystem &System = MteSystem::instance();
  if (TS.checkMode() == CheckMode::Async) {
    accessMetrics().MismatchAsync.add();
    TS.latchAsyncFault(Address, PointerTag, MemoryTag, IsWrite, Size);
    return;
  }
  accessMetrics().MismatchSync.add();
  System.stats().SyncFaults.fetch_add(1, std::memory_order_relaxed);
  FaultRecord Record;
  Record.Kind = FaultKind::TagMismatchSync;
  Record.HasAddress = true;
  Record.Address = Address;
  Record.DebugAddress = Address;
  Record.PointerTag = PointerTag;
  Record.MemoryTag = MemoryTag;
  Record.IsWrite = IsWrite;
  Record.AccessSize = Size;
  Record.ThreadId = TS.threadId();
  // Sync faults capture the frame stack at the faulting access itself:
  // this is Figure 4b's precise trace.
  Record.Backtrace = support::FrameStack::current().capture();
  System.deliverFault(std::move(Record));
}

} // namespace

void checkAccessSlow(ThreadState &TS, uint64_t Bits, uint32_t Size,
                     bool IsWrite) {
  MteSystem &System = MteSystem::instance();
  uint64_t Address = addressOf(Bits);
  uint64_t LastByte = Address + Size - 1;
  uint64_t First = support::alignDown(Address, kGranuleSize);
  uint64_t Last = support::alignDown(LastByte, kGranuleSize);
  TagValue PointerTag = pointerTagOf(Bits);

  RegionPin Pin(System);
  accessMetrics().RegionCacheMiss.add();
  countRegionCacheMissReason(TS, Address, Size);

  // Hardware checks every granule the access touches against the page it
  // lives in: an access can begin below a PROT_MTE region and extend into
  // it (the old single find(Address) lookup missed exactly that case), or
  // span two adjacent regions. Granules outside every region are
  // unchecked, like non-PROT_MTE memory.
  uint64_t Checked = 0;
  const TaggedRegion *Hit = nullptr;
  for (uint64_t Granule = First;; Granule += kGranuleSize) {
    const TaggedRegion *Region =
        (Hit && Hit->contains(Granule)) ? Hit : Pin->find(Granule);
    if (Region != nullptr) {
      Hit = Region;
      ++Checked;
      if (M4J_UNLIKELY(Region->tagAt(Granule) != PointerTag)) {
        TS.countAccess(IsWrite, Checked);
        reportMismatch(TS, Address, PointerTag, Region->tagAt(Granule), Size,
                       IsWrite);
        return;
      }
    }
    if (Granule >= Last)
      break;
  }
  if (Checked == 0)
    return; // not PROT_MTE memory: unchecked, like hardware

  TS.countAccess(IsWrite, Checked);

  // Refill the last-hit cache when the whole access sits in one region —
  // the overwhelmingly common case the inlined fast path serves next time.
  if (Hit->contains(Address) && Hit->contains(LastByte))
    TS.cacheRegion(Pin->findShared(Address), Pin.epoch());
}

} // namespace detail

namespace {

/// Granule-stride check over [Bits, Bits+Bytes) used by the bulk helpers.
/// One SWAR scan of the shadow bytes per overlapped region — the
/// hardware analog is that a memcpy's tag checks ride along with its loads
/// and stores at no visible extra cost. Ranges may straddle region
/// boundaries in either direction; every granule inside a region is
/// checked, granules outside every region are not.
M4J_NOINLINE void checkRangeSlow(ThreadState &TS, uint64_t Bits,
                                 uint64_t Bytes, bool IsWrite,
                                 support::SampledLatency &Lat) {
  MteSystem &System = MteSystem::instance();
  uint64_t Address = addressOf(Bits);
  uint64_t End = Address + Bytes;
  TagValue PointerTag = pointerTagOf(Bits);

  RegionPin Pin(System);
  detail::accessMetrics().RegionCacheMiss.add();
  detail::countRegionCacheMissReason(TS, Address, Bytes);

  uint64_t Granules = 0;
  const TaggedRegion *Container = nullptr;
  for (const auto &RegionPtr : Pin->regions()) {
    const TaggedRegion &Region = *RegionPtr;
    uint64_t From = std::max(Address, Region.begin());
    uint64_t To = std::min(End, Region.end());
    if (From >= To)
      continue;
    uint64_t FirstIdx =
        granuleIndex(support::alignDown(From, kGranuleSize), Region.begin());
    uint64_t LastIdx =
        granuleIndex(support::alignDown(To - 1, kGranuleSize), Region.begin());
    Granules += LastIdx - FirstIdx + 1;
    uint64_t Bad = Region.findMismatch(FirstIdx, LastIdx, PointerTag);
    if (M4J_UNLIKELY(Bad != UINT64_MAX)) {
      TS.countAccess(IsWrite, Granules);
      uint64_t BadAddr = Region.begin() + (Bad << kGranuleShift);
      uint64_t FaultAddr = std::max(Address, BadAddr);
      detail::reportMismatch(
          TS, FaultAddr, PointerTag, Region.tagAt(BadAddr),
          static_cast<uint32_t>(std::min<uint64_t>(Bytes, kGranuleSize)),
          IsWrite);
      return;
    }
    if (Address >= Region.begin() && End <= Region.end())
      Container = &Region;
  }
  if (Granules == 0)
    return; // not PROT_MTE memory

  TS.countAccess(IsWrite, Granules);
  if (Lat.armed()) {
    Lat.setArg(static_cast<uint8_t>(detail::checkKernelFor(Granules)));
    Lat.setArg2(static_cast<uint32_t>(
        Granules > UINT32_MAX ? UINT32_MAX : Granules));
  }
  if (Container != nullptr)
    TS.cacheRegion(Pin->findShared(Address), Pin.epoch());
}

M4J_ALWAYS_INLINE void checkRange(uint64_t Bits, uint64_t Bytes,
                                  bool IsWrite) {
  if (Bytes == 0)
    return;
  ThreadState &TS = ThreadState::current();
  if (M4J_LIKELY(!TS.checksOn()))
    return;

  // ~1/64 of checks record a latency sample and a CheckScan flight slice
  // (kernel choice + granule count filled in below, once known).
  static support::Histogram &CheckNanos =
      support::Metrics::histogram("mte/access/check_range_nanos");
  support::SampledLatency Lat(CheckNanos, support::FlightKind::CheckScan);

  // Fast path: whole range inside the thread's cached region under the
  // current publish epoch — one SWAR scan, no list walk.
  uint64_t Address = addressOf(Bits);
  const TaggedRegion *Cached = TS.cachedRegion();
  if (M4J_LIKELY(
          Cached != nullptr &&
          TS.cachedRegionEpoch() ==
              detail::RegionPublishEpoch.load(std::memory_order_acquire) &&
          Cached->contains(Address) && Bytes <= Cached->end() - Address)) {
    TagValue PointerTag = pointerTagOf(Bits);
    uint64_t FirstIdx = granuleIndex(
        support::alignDown(Address, kGranuleSize), Cached->begin());
    uint64_t LastIdx =
        granuleIndex(support::alignDown(Address + Bytes - 1, kGranuleSize),
                     Cached->begin());
    uint64_t Granules = LastIdx - FirstIdx + 1;
    if (M4J_UNLIKELY(Lat.armed())) {
      Lat.setArg(static_cast<uint8_t>(detail::checkKernelFor(Granules)));
      Lat.setArg2(static_cast<uint32_t>(
          Granules > UINT32_MAX ? UINT32_MAX : Granules));
    }
    uint64_t Bad = Cached->findMismatch(FirstIdx, LastIdx, PointerTag);
    if (M4J_LIKELY(Bad == UINT64_MAX)) {
      TS.countAccess(IsWrite, Granules);
      TS.countRegionCacheHit();
      return;
    }
    // Mismatch: fall through for uniform counting and reporting.
  }
  checkRangeSlow(TS, Bits, Bytes, IsWrite, Lat);
}

} // namespace

void checkReadRange(TaggedPtr<const void> Ptr, uint64_t Bytes) {
  checkRange(Ptr.bits(), Bytes, /*IsWrite=*/false);
}

void checkWriteRange(TaggedPtr<void> Ptr, uint64_t Bytes) {
  checkRange(Ptr.bits(), Bytes, /*IsWrite=*/true);
}

void copyBytes(TaggedPtr<void> Dst, TaggedPtr<const void> Src,
               uint64_t Bytes) {
  checkRange(Src.bits(), Bytes, /*IsWrite=*/false);
  checkRange(Dst.bits(), Bytes, /*IsWrite=*/true);
  std::memmove(Dst.raw(), Src.raw(), Bytes);
}

void fillBytes(TaggedPtr<void> Dst, uint8_t Value, uint64_t Bytes) {
  checkRange(Dst.bits(), Bytes, /*IsWrite=*/true);
  std::memset(Dst.raw(), Value, Bytes);
}

void readBytes(void *HostDst, TaggedPtr<const void> Src, uint64_t Bytes) {
  checkRange(Src.bits(), Bytes, /*IsWrite=*/false);
  std::memcpy(HostDst, Src.raw(), Bytes);
}

void writeBytes(TaggedPtr<void> Dst, const void *HostSrc, uint64_t Bytes) {
  checkRange(Dst.bits(), Bytes, /*IsWrite=*/true);
  std::memcpy(Dst.raw(), HostSrc, Bytes);
}

void simulatedSyscall(const char *Name) { support::syscallBarrier(Name); }

} // namespace mte4jni::mte
