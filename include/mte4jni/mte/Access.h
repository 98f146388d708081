//===- Access.h - Tag-checked memory access ------------------------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated data path. On hardware every load/store from a thread with
/// checks enabled compares the pointer's logical tag against the granule's
/// allocation tag. Simulated native code performs its Java-heap accesses
/// through mte::load / mte::store (or CheckedSpan), which reproduce that
/// check. The fast path — checks disabled — is a TLS pointer load and a
/// flag test, so the "no protection" baseline measured by the benchmarks
/// is honest. A checked access that hits the thread's region cache touches
/// only the thread's own state, the publish epoch and the tag shadow: its
/// counts go to ThreadState cells, not to the metrics registry.
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_MTE_ACCESS_H
#define MTE4JNI_MTE_ACCESS_H

#include "mte4jni/mte/TagStorage.h"
#include "mte4jni/mte/TaggedPtr.h"
#include "mte4jni/mte/ThreadState.h"

#include <cstring>
#include <type_traits>

namespace mte4jni::mte {

namespace detail {
/// Out-of-line tag check; called on region-cache miss or when the fast
/// path saw a mismatch. Resolves the region(s) granule-by-granule, refills
/// the thread's region cache, and performs fault delivery/latching.
void checkAccessSlow(ThreadState &TS, uint64_t Bits, uint32_t Size,
                     bool IsWrite);

/// Header-inlined hit path: the access lies entirely inside the thread's
/// cached last-hit region, the cache is from the current publish epoch,
/// and every touched granule's tag matches. Returns false (deferring to
/// checkAccessSlow) on cache miss, straddle out of the cached region, or
/// tag mismatch. The epoch load is the only shared-state read — no
/// MteSystem::instance() magic-static guard, no region-list walk, no
/// registry counter.
M4J_ALWAYS_INLINE bool checkAccessFast(ThreadState &TS, uint64_t Bits,
                                       uint32_t Size, bool IsWrite) {
  const TaggedRegion *Region = TS.cachedRegion();
  if (Region == nullptr)
    return false;
  if (M4J_UNLIKELY(TS.cachedRegionEpoch() !=
                   RegionPublishEpoch.load(std::memory_order_acquire)))
    return false;
  uint64_t Address = addressOf(Bits);
  uint64_t LastByte = Address + Size - 1;
  if (M4J_UNLIKELY(!Region->contains(Address) ||
                   !Region->contains(LastByte)))
    return false;
  TagValue PointerTag = pointerTagOf(Bits);
  uint64_t First = support::alignDown(Address, kGranuleSize);
  uint64_t Last = support::alignDown(LastByte, kGranuleSize);
  for (uint64_t Granule = First;; Granule += kGranuleSize) {
    if (M4J_UNLIKELY(Region->tagAt(Granule) != PointerTag))
      return false; // slow path re-checks and reports
    if (Granule >= Last)
      break;
  }
  TS.countAccess(IsWrite, ((Last - First) >> kGranuleShift) + 1);
  TS.countRegionCacheHit();
  return true;
}

M4J_ALWAYS_INLINE void maybeCheck(uint64_t Bits, uint32_t Size,
                                  bool IsWrite) {
  ThreadState &TS = ThreadState::current();
  if (M4J_LIKELY(!TS.checksOn()))
    return;
  if (M4J_LIKELY(checkAccessFast(TS, Bits, Size, IsWrite)))
    return;
  checkAccessSlow(TS, Bits, Size, IsWrite);
}
} // namespace detail

/// Tag-checked load of a T through a tagged pointer. (T may be
/// const-qualified; the value type returned is the unqualified T.) The
/// address need not be aligned for T, as native code's need not be on
/// AArch64; the bytes move through memcpy, which compiles to one move.
template <typename T>
M4J_ALWAYS_INLINE std::remove_const_t<T> load(TaggedPtr<T> Ptr) {
  static_assert(std::is_trivially_copyable_v<T>);
  detail::maybeCheck(Ptr.bits(), sizeof(T), /*IsWrite=*/false);
  std::remove_const_t<T> Value;
  std::memcpy(&Value, Ptr.raw(), sizeof(T));
  return Value;
}

/// Tag-checked store of a T through a tagged pointer (alignment as load).
template <typename T>
M4J_ALWAYS_INLINE void store(TaggedPtr<T> Ptr, T Value) {
  static_assert(std::is_trivially_copyable_v<T>);
  detail::maybeCheck(Ptr.bits(), sizeof(T), /*IsWrite=*/true);
  std::memcpy(Ptr.raw(), &Value, sizeof(T));
}

/// Tag-checked bulk copy. Checks once per touched granule (hardware checks
/// every access, but the per-granule tag can only change at granule
/// boundaries, so this is equivalent detection-wise).
void copyBytes(TaggedPtr<void> Dst, TaggedPtr<const void> Src,
               uint64_t Bytes);

/// Tag-checked bulk fill.
void fillBytes(TaggedPtr<void> Dst, uint8_t Value, uint64_t Bytes);

/// Performs the tag checks for a read (resp. write) of [Ptr, Ptr+Bytes)
/// without moving any data. Native loops that stream over a buffer can
/// check the whole range once and then access raw memory — the simulator's
/// cost-faithful stand-in for hardware MTE, whose per-access checks ride
/// along with the accesses at no visible marginal cost.
void checkReadRange(TaggedPtr<const void> Ptr, uint64_t Bytes);
void checkWriteRange(TaggedPtr<void> Ptr, uint64_t Bytes);

/// Tag-checked read into untagged host memory.
void readBytes(void *HostDst, TaggedPtr<const void> Src, uint64_t Bytes);

/// Tag-checked write from untagged host memory.
void writeBytes(TaggedPtr<void> Dst, const void *HostSrc, uint64_t Bytes);

/// A length-carrying view over tagged memory; the convenience wrapper
/// simulated native methods use. Deliberately performs NO bounds checking
/// of its own — out-of-bounds indices are exactly the illicit accesses the
/// paper is about, and whether they are caught depends on the active
/// protection scheme.
template <typename T> class CheckedSpan {
public:
  CheckedSpan() = default;
  CheckedSpan(TaggedPtr<T> Base, uint64_t Length)
      : Base(Base), Length(Length) {}

  uint64_t size() const { return Length; }
  TaggedPtr<T> data() const { return Base; }

  T get(uint64_t Index) const { return load<T>(Base + ptrdiff_t(Index)); }
  void set(uint64_t Index, T Value) {
    store<T>(Base + ptrdiff_t(Index), Value);
  }

private:
  TaggedPtr<T> Base;
  uint64_t Length = 0;
};

/// Announces a simulated syscall on this thread; async MTE faults latched
/// in the TFSR are delivered here (paper Figure 4c shows getuid()).
void simulatedSyscall(const char *Name);

} // namespace mte4jni::mte

#endif // MTE4JNI_MTE_ACCESS_H
