//===- Html5.cpp - "HTML5 Browser" workload -------------------------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Models Geekbench's HTML5 Browser sub-item: tokenise an HTML document,
// build a DOM-ish tree, then compute a layout pass (box widths) over it.
// The document crosses the JNI boundary in bulk; the parse runs on native
// scratch (boundary-traffic class).
//
//===----------------------------------------------------------------------===//

#include "WorkloadsInternal.h"

#include "mte4jni/rt/Trampoline.h"

#include <string>
#include <vector>

namespace mte4jni::workloads {
namespace {

struct DomNode {
  uint32_t TagHash = 0;
  int32_t Parent = -1;
  uint32_t TextBytes = 0;
  uint32_t Width = 0;
};

/// Deterministic pseudo-HTML document of roughly \p TargetBytes, balanced
/// tags with class attributes and word runs. Shared by the byte-array
/// profile (bulk boundary traffic) and the jstring profile (per-char
/// string-critical traffic) so both parse identical markup per seed.
std::string buildHtmlDocument(uint64_t Seed, size_t TargetBytes) {
  support::Xoshiro256 Rng(Seed ^ 0x4735);
  static const char *Tags[] = {"div", "span", "p", "a", "li", "ul",
                               "h1",  "td",   "tr"};
  std::string Doc = "<html><body>";
  unsigned Depth = 2;
  std::vector<const char *> Stack = {"html", "body"};
  while (Doc.size() < TargetBytes - 64) {
    if (Depth < 12 && Rng.nextBool(0.55)) {
      const char *T = Tags[Rng.nextBelow(std::size(Tags))];
      Doc += "<";
      Doc += T;
      if (Rng.nextBool(0.3))
        Doc += " class=\"c" + std::to_string(Rng.nextBelow(30)) + "\"";
      Doc += ">";
      Stack.push_back(T);
      ++Depth;
    } else if (Depth > 2 && Rng.nextBool(0.5)) {
      Doc += "</";
      Doc += Stack.back();
      Doc += ">";
      Stack.pop_back();
      --Depth;
    } else {
      for (unsigned I = 0, N = unsigned(4 + Rng.nextBelow(40)); I < N; ++I)
        Doc += static_cast<char>('a' + Rng.nextBelow(26));
      Doc += ' ';
    }
  }
  while (!Stack.empty()) {
    Doc += "</";
    Doc += Stack.back();
    Doc += ">";
    Stack.pop_back();
  }
  return Doc;
}

class Html5Workload final : public Workload {
public:
  const char *name() const override { return "HTML5 Browser"; }

  void prepare(WorkloadContext &Ctx) override {
    std::string Doc = buildHtmlDocument(Ctx.Seed, kDocBytes);

    Document = Ctx.Env.NewByteArray(Ctx.Scope,
                                    static_cast<jni::jsize>(Doc.size()));
    auto *Data = rt::arrayData<jni::jbyte>(Document);
    for (size_t I = 0; I < Doc.size(); ++I)
      Data[I] = static_cast<jni::jbyte>(Doc[I]);
  }

  uint64_t run(WorkloadContext &Ctx) override {
    return rt::callNative(
        Ctx.Thread, rt::NativeKind::Regular, "html5_parse_layout", [&] {
          std::vector<jni::jbyte> Doc =
              readArrayToNative<jni::jbyte>(Ctx.Env, Document);

          // Tokenise + build the tree.
          std::vector<DomNode> Nodes;
          Nodes.push_back({}); // document node
          int32_t Cur = 0;
          size_t I = 0;
          auto HashRange = [&](size_t From, size_t To) {
            uint32_t H = 2166136261u;
            for (size_t K = From; K < To; ++K)
              H = (H ^ static_cast<uint8_t>(Doc[K])) * 16777619u;
            return H;
          };
          while (I < Doc.size()) {
            if (Doc[I] != '<') {
              ++Nodes[static_cast<size_t>(Cur)].TextBytes;
              ++I;
              continue;
            }
            bool Close = I + 1 < Doc.size() && Doc[I + 1] == '/';
            size_t NameStart = I + (Close ? 2 : 1);
            size_t J = NameStart;
            while (J < Doc.size() && Doc[J] != '>' && Doc[J] != ' ')
              ++J;
            size_t End = J;
            while (End < Doc.size() && Doc[End] != '>')
              ++End;
            if (Close) {
              if (Nodes[static_cast<size_t>(Cur)].Parent >= 0)
                Cur = Nodes[static_cast<size_t>(Cur)].Parent;
            } else {
              DomNode N;
              N.TagHash = HashRange(NameStart, J);
              N.Parent = Cur;
              Nodes.push_back(N);
              Cur = static_cast<int32_t>(Nodes.size() - 1);
            }
            I = End + 1;
          }

          // "Layout": width = own text * 7px + children widths, computed
          // bottom-up (children appear after parents in Nodes).
          for (size_t K = Nodes.size(); K-- > 0;) {
            Nodes[K].Width += Nodes[K].TextBytes * 7;
            if (Nodes[K].Parent >= 0)
              Nodes[static_cast<size_t>(Nodes[K].Parent)].Width +=
                  Nodes[K].Width / 2;
          }

          uint64_t Sum = Nodes.size();
          for (const DomNode &N : Nodes)
            Sum = mixChecksum(Sum, (uint64_t(N.TagHash) << 16) ^ N.Width);
          return Sum;
        });
  }

private:
  static constexpr size_t kDocBytes = 48 << 10;
  jni::jarray Document = nullptr;
};

/// The server harness's string tenant: the same markup kept as a Java
/// *string*, parsed through GetStringCritical one jchar at a time. Unlike
/// Html5Workload (one bulk transfer, native-scratch parse), every character
/// read here goes through the tagged JNI pointer, the style the paper calls
/// JNI-intensive. The reads go through a jni::PinnedStringChars: its one
/// tag scan per string critical stands in for the per-char checks, which
/// MTE hardware does as part of each load while the pin holds the tags
/// fixed. Not part of the 16-item Geekbench suite; reachable via
/// makeWorkload("HTML5 DOM Strings") and the workload registry's server
/// request mix.
class Html5StringsWorkload final : public Workload {
public:
  const char *name() const override { return "HTML5 DOM Strings"; }
  bool isJniIntensive() const override { return true; }

  void prepare(WorkloadContext &Ctx) override {
    std::string Doc = buildHtmlDocument(Ctx.Seed, kDocBytes);
    Document = Ctx.Env.NewStringUTF(Ctx.Scope, Doc.c_str());
  }

  uint64_t run(WorkloadContext &Ctx) override {
    return rt::callNative(
        Ctx.Thread, rt::NativeKind::Regular, "html5_dom_strings", [&] {
          // Held until the body returns.
          jni::PinnedStringChars Chars(Ctx.Env, Document);
          jni::jsize Len = Chars.length();
          auto At = [&](jni::jsize I) {
            return static_cast<char>(Chars.at(I));
          };
          // Tokenise + tree + layout as in Html5Workload, but every read
          // crosses the pinned JNI pointer.
          std::vector<DomNode> Nodes;
          Nodes.push_back({});
          int32_t Cur = 0;
          jni::jsize I = 0;
          uint32_t Tokens = 0;
          while (I < Len) {
            // This scan holds a string critical for the whole document:
            // checkpoint periodically so a requested GC pause is not
            // stalled for the full parse (the string stays pinned).
            if ((Tokens++ & 255) == 0)
              Ctx.Thread.runtime().safepointPoll();
            if (At(I) != '<') {
              ++Nodes[static_cast<size_t>(Cur)].TextBytes;
              ++I;
              continue;
            }
            bool Close = I + 1 < Len && At(I + 1) == '/';
            jni::jsize NameStart = I + (Close ? 2 : 1);
            jni::jsize J = NameStart;
            uint32_t H = 2166136261u;
            while (J < Len) {
              char C = At(J);
              if (C == '>' || C == ' ')
                break;
              H = (H ^ static_cast<uint8_t>(C)) * 16777619u;
              ++J;
            }
            jni::jsize End = J;
            while (End < Len && At(End) != '>')
              ++End;
            if (Close) {
              if (Nodes[static_cast<size_t>(Cur)].Parent >= 0)
                Cur = Nodes[static_cast<size_t>(Cur)].Parent;
            } else {
              DomNode N;
              N.TagHash = H;
              N.Parent = Cur;
              Nodes.push_back(N);
              Cur = static_cast<int32_t>(Nodes.size() - 1);
            }
            I = End + 1;
          }

          for (size_t K = Nodes.size(); K-- > 0;) {
            Nodes[K].Width += Nodes[K].TextBytes * 7;
            if (Nodes[K].Parent >= 0)
              Nodes[static_cast<size_t>(Nodes[K].Parent)].Width +=
                  Nodes[K].Width / 2;
          }
          uint64_t Sum = Nodes.size();
          for (const DomNode &N : Nodes)
            Sum = mixChecksum(Sum, (uint64_t(N.TagHash) << 16) ^ N.Width);
          return Sum;
        });
  }

private:
  /// Smaller than the byte-array profile: one request should cost tens of
  /// microseconds, not a full page render, so a paced server can push
  /// thousands per second per worker.
  static constexpr size_t kDocBytes = 16 << 10;
  jni::jstring Document = nullptr;
};

} // namespace

std::unique_ptr<Workload> makeHtml5Browser() {
  return std::make_unique<Html5Workload>();
}

std::unique_ptr<Workload> makeHtml5DomStrings() {
  return std::make_unique<Html5StringsWorkload>();
}

} // namespace mte4jni::workloads
