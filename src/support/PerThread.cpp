//===- PerThread.cpp - Dense thread slots ---------------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/support/PerThread.h"

#include <algorithm>
#include <bitset>
#include <mutex>

#include <pthread.h>

namespace mte4jni::support {

thread_local constinit unsigned detail::ThreadSlotPlusOne = 0;

namespace {

void releaseSlot(void *SlotPlusOne);

struct SlotTable {
  std::mutex Lock;
  std::bitset<kMaxThreadSlots> Used;
  std::atomic<unsigned> HighWater{0};
  pthread_key_t Key = 0;
  SlotTable() {
    int Err = pthread_key_create(&Key, releaseSlot);
    M4J_ASSERT(Err == 0, "cannot create the thread-slot key");
  }
};

/// Leaked: threads return their slots during and after static destruction.
SlotTable &slotTable() {
  static SlotTable *T = new SlotTable;
  return *T;
}

/// The key's destructor. glibc runs it after every C++ thread_local
/// destructor of the thread (start_thread calls __call_tls_dtors before
/// __nptl_deallocate_tsd), so a count made from a thread_local destructor
/// still lands in a cell the thread owns. The mutex orders this owner's
/// last store before the next owner's first. The main thread keeps its
/// slot.
void releaseSlot(void *SlotPlusOne) {
  SlotTable &T = slotTable();
  std::lock_guard<std::mutex> Guard(T.Lock);
  T.Used.reset(reinterpret_cast<uintptr_t>(SlotPlusOne) - 1);
  detail::ThreadSlotPlusOne = 0;
}

} // namespace

unsigned detail::claimThreadSlot() {
  SlotTable &T = slotTable();
  unsigned Slot = 0;
  {
    std::lock_guard<std::mutex> Guard(T.Lock);
    while (Slot < kMaxThreadSlots && T.Used[Slot])
      ++Slot;
    M4J_ASSERT(Slot < kMaxThreadSlots, "more live threads than thread slots");
    T.Used.set(Slot);
    T.HighWater.store(std::max(T.HighWater.load(), Slot + 1));
  }
  // Without the key's value the slot would never be returned.
  int Err = pthread_setspecific(T.Key,
                                reinterpret_cast<void *>(uintptr_t(Slot) + 1));
  M4J_ASSERT(Err == 0, "cannot register the thread slot for release");
  ThreadSlotPlusOne = Slot + 1;
  return Slot;
}

unsigned threadSlotHighWater() {
  return slotTable().HighWater.load(std::memory_order_relaxed);
}

} // namespace mte4jni::support
