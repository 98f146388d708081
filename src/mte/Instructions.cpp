//===- Instructions.cpp - Simulated MTE instruction set --------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/mte/Instructions.h"

#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/mte/ThreadState.h"
#include "mte4jni/support/Metrics.h"

#include <bit>

namespace mte4jni::mte {

namespace {

/// Simulated-instruction retire counts: the raw tag-op volume behind the
/// paper's tag-maintenance overhead numbers. IRG and LDG count one per
/// instruction, STG one per granule written (bulk tagging retires a loop
/// of stg/st2g); the discrete stg/st2g entry points also count their own
/// calls.
struct InstrMetrics {
  support::Counter &Irg = support::Metrics::counter("mte/instr/irg");
  support::Counter &Ldg = support::Metrics::counter("mte/instr/ldg");
  support::Counter &StgGranules =
      support::Metrics::counter("mte/instr/stg_granules");
  support::Counter &Stg = support::Metrics::counter("mte/instr/stg");
  support::Counter &St2g = support::Metrics::counter("mte/instr/st2g");
};

InstrMetrics &instrMetrics() {
  static InstrMetrics M;
  return M;
}

/// Registered at load time so snapshots taken before any tag instruction
/// still include the instruction counters.
const bool InstrMetricsRegistered = (instrMetrics(), true);

} // namespace

TagValue irgTag(uint16_t ExtraExclude) {
  MteSystem &System = MteSystem::instance();
  uint16_t Exclude =
      static_cast<uint16_t>(System.irgExcludeMask() | ExtraExclude);
  instrMetrics().Irg.add();

  uint16_t Allowed = static_cast<uint16_t>(~Exclude);
  if (Allowed == 0)
    return 0; // hardware: all-excluded IRG yields tag 0

  unsigned NumAllowed = static_cast<unsigned>(std::popcount(Allowed));
  unsigned Pick = static_cast<unsigned>(
      ThreadState::current().irgRng().nextBelow(NumAllowed));
  // Select the Pick-th set bit of Allowed.
  for (unsigned Tag = 0; Tag < kNumTags; ++Tag) {
    if (Allowed & (1u << Tag)) {
      if (Pick == 0)
        return static_cast<TagValue>(Tag);
      --Pick;
    }
  }
  M4J_UNREACHABLE("popcount/selection mismatch");
}

TaggedPtr<void> irg(TaggedPtr<void> Ptr, uint16_t ExtraExclude) {
  return Ptr.withTag(irgTag(ExtraExclude));
}

TagValue ldgTag(uint64_t Addr) {
  instrMetrics().Ldg.add();
  return MteSystem::instance().memoryTagAt(addressOf(Addr));
}

TaggedPtr<void> ldg(TaggedPtr<void> Ptr) {
  return Ptr.withTag(ldgTag(Ptr.address()));
}

namespace {

/// Shared implementation for STG/ST2G/bulk stores: one setTagRange over
/// the packed shadow (DESIGN.md §13).
void storeTags(uint64_t Addr, uint64_t Granules, TagValue Tag) {
  MteSystem &System = MteSystem::instance();
  RegionPin Pin(System);
  TaggedRegion *Region = Pin->findMutable(Addr);
  M4J_ASSERT(Region != nullptr,
             "tag store to memory not mapped with PROT_MTE");
  uint64_t From = support::alignDown(Addr, kGranuleSize);
  instrMetrics().StgGranules.add(
      Region->setTagRange(From, From + Granules * kGranuleSize, Tag));
}

} // namespace

void stg(TaggedPtr<void> Ptr) {
  instrMetrics().Stg.add();
  storeTags(Ptr.address(), 1, Ptr.tag());
}

void st2g(TaggedPtr<void> Ptr) {
  instrMetrics().St2g.add();
  storeTags(Ptr.address(), 2, Ptr.tag());
}

void setTagRange(TaggedPtr<void> Ptr, uint64_t Bytes) {
  if (Bytes == 0)
    return;
  uint64_t Begin = support::alignDown(Ptr.address(), kGranuleSize);
  uint64_t End = support::alignTo(Ptr.address() + Bytes, kGranuleSize);
  // Algorithm 1 applies tags "using st2g and stg instructions"; a loop of
  // those retires at store throughput on hardware, so the simulator uses
  // one bulk shadow fill to stay cost-faithful (one lookup, one memset).
  storeTags(Begin, (End - Begin) >> kGranuleShift, Ptr.tag());
}

void clearTagRange(uint64_t Addr, uint64_t Bytes) {
  if (Bytes == 0)
    return;
  uint64_t Begin = support::alignDown(addressOf(Addr), kGranuleSize);
  uint64_t End = support::alignTo(addressOf(Addr) + Bytes, kGranuleSize);
  storeTags(Begin, (End - Begin) >> kGranuleShift, 0);
}

uint64_t taggedGranulesIn(uint64_t Addr, uint64_t Bytes) {
  if (Bytes == 0)
    return 0;
  MteSystem &System = MteSystem::instance();
  RegionPin Pin(System);
  const TaggedRegion *Region = Pin->find(addressOf(Addr));
  if (Region == nullptr)
    return 0;
  return Region->countTagged(addressOf(Addr), addressOf(Addr) + Bytes);
}

} // namespace mte4jni::mte
