//===- Handle.h - GC root scopes ------------------------------------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Handle scopes are the GC root set of the mini runtime: objects rooted in
/// a live scope survive collection. A Handle is simply a rooted
/// ObjectHeader pointer. Under GcMode::MarkSweep objects never move; under
/// GcMode::Compacting the collector slides unpinned survivors and rewrites
/// every scope's root slots, so only a pointer re-read from its scope
/// (or one JNI-pinned across the collection) stays valid.
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_RT_HANDLE_H
#define MTE4JNI_RT_HANDLE_H

#include "mte4jni/rt/Object.h"

#include <vector>

namespace mte4jni::rt {

class Runtime;

/// A stack-discipline scope of GC roots. Registers with the Runtime on
/// construction, unregisters on destruction.
class HandleScope {
public:
  explicit HandleScope(Runtime &RT);
  ~HandleScope();

  HandleScope(const HandleScope &) = delete;
  HandleScope &operator=(const HandleScope &) = delete;

  /// Roots \p Obj for the lifetime of this scope and returns it unchanged.
  ObjectHeader *root(ObjectHeader *Obj) {
    if (Obj)
      Roots.push_back(Obj);
    return Obj;
  }

  /// Removes a previously added root (rarely needed; scopes usually just
  /// die).
  void unroot(ObjectHeader *Obj);

  const std::vector<ObjectHeader *> &roots() const { return Roots; }

  /// Mutable access for the compacting GC's root rewriting.
  std::vector<ObjectHeader *> &mutableRoots() { return Roots; }

private:
  Runtime &RT;
  std::vector<ObjectHeader *> Roots;
};

} // namespace mte4jni::rt

#endif // MTE4JNI_RT_HANDLE_H
