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
/// Out-of-line tag check, for an access the inline one-granule hit did
/// not serve. An access that does not fit in one granule first gets the
/// region cache's general hit test. Otherwise (a cache miss or a tag
/// mismatch) it resolves the region(s) granule-by-granule, refills the
/// thread's region cache, and performs fault delivery/latching.
void checkAccessSlow(ThreadState &TS, uint64_t Bits, uint32_t Size,
                     bool IsWrite);

/// True when a \p Size-byte access at offset \p Off from a granule-aligned
/// base lies in one granule; a Size over 16 never does.
constexpr bool fitsOneGranule(uint64_t Off, uint64_t Size) {
  return (Off & (kGranuleSize - 1)) + Size <= kGranuleSize;
}

/// Header-inlined hit path: the access fits in one granule of the
/// thread's cached last-hit region, the cache is from the current publish
/// epoch, and the granule's tag matches. Returns false (deferring to
/// checkAccessSlow) on cache miss, an access outside the cached region or
/// across a granule boundary, or tag mismatch. It reads the cached
/// region's begin, size and shadow from \p TS; the epoch load is the only
/// shared-state read — no MteSystem::instance() magic-static guard, no
/// region-list walk, no registry counter — and a hit bumps one
/// ThreadState cell.
M4J_ALWAYS_INLINE bool checkAccessFast(ThreadState &TS, uint64_t Bits,
                                       uint32_t Size, bool IsWrite) {
  // An empty cache has epoch 0, which the publish epoch never equals.
  if (M4J_UNLIKELY(TS.cachedRegionEpoch() !=
                   RegionPublishEpoch.load(std::memory_order_acquire)))
    return false;
  uint64_t Off = addressOf(Bits) - TS.cachedRegionBegin();
  // A region is a whole number of granules, so an access that fits in
  // Off's granule lies in the region exactly when its first byte does; an
  // address below the region wraps Off past the region's size. Size is a
  // constant once inlined. A straddling access takes the general hit test
  // out of line, which keeps every inlined access site small enough for
  // GCC to inline the native code's own per-element helpers.
  if (M4J_UNLIKELY(!fitsOneGranule(Off, Size) ||
                   !TS.cachedRegionCovers(Off, 1)))
    return false;
  // The region is granule-aligned, so the granule index comes from Off.
  if (M4J_UNLIKELY(packedTagAt(TS.cachedRegionShadow(),
                               Off >> kGranuleShift) != pointerTagOf(Bits)))
    return false; // slow path re-checks and reports
  TS.countHit(IsWrite, 0);
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

/// The same read check as checkReadRange, but silent: returns whether a
/// checked read of every byte of [Ptr, Ptr+Bytes) would pass, and never
/// delivers or latches a fault. True when the thread's checks are off. It
/// takes checkReadRange's region-cache and shadow-scan path and counts as
/// one checked range read. For a caller that holds a pin over the range
/// (the range's tags cannot change until it releases) and can then read
/// in-range bytes without further checks; see jni::PinnedStringChars.
bool rangeTagsMatch(TaggedPtr<const void> Ptr, uint64_t Bytes);

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
