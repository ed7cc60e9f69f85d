//===- analysis/Cfg.cpp - Control-flow graph utilities --------------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/Cfg.h"

#include <algorithm>

using namespace spvfuzz;

Cfg::Cfg(const Function &Func) {
  if (Func.Blocks.empty())
    return;
  NumBlocks = static_cast<uint32_t>(Func.Blocks.size());
  Entry = Func.Blocks.front().LabelId;
  Nodes.reserve(NumBlocks);
  ByLabel.reserve(NumBlocks);
  for (uint32_t I = 0; I < NumBlocks; ++I) {
    Nodes.push_back(Func.Blocks[I].LabelId);
    ByLabel.push_back({Func.Blocks[I].LabelId, I});
  }
  // Sorting by (label, index) leaves the last block of a shared label last
  // among its equals; keep only that one.
  std::sort(ByLabel.begin(), ByLabel.end());
  size_t Kept = 0;
  for (size_t I = 0; I < ByLabel.size(); ++I) {
    if (I + 1 < ByLabel.size() && ByLabel[I + 1].first == ByLabel[I].first) {
      UniqueLabels = false;
      continue;
    }
    ByLabel[Kept++] = ByLabel[I];
  }
  ByLabel.resize(Kept);

  SuccBegin.assign(NumBlocks + 1, 0);
  for (uint32_t I = 0; I < NumBlocks; ++I) {
    Id Succs[2];
    unsigned Count = Func.Blocks[I].successors(Succs);
    for (unsigned S = 0; S < Count; ++S) {
      SuccIds.push_back(Succs[S]);
      SuccNodes.push_back(findOrAddTarget(Succs[S]));
    }
    SuccBegin[I + 1] = static_cast<uint32_t>(SuccIds.size());
  }

  // Predecessor lists by counting sort over the edges in block order, so
  // each list keeps block order.
  const size_t NumNodes = Nodes.size();
  PredBegin.assign(NumNodes + 1, 0);
  for (uint32_t Target : SuccNodes)
    ++PredBegin[Target + 1];
  for (size_t N = 0; N < NumNodes; ++N)
    PredBegin[N + 1] += PredBegin[N];
  PredIds.resize(SuccIds.size());
  PredNodes.resize(SuccIds.size());
  std::vector<uint32_t> Fill(PredBegin.begin(), PredBegin.end() - 1);
  for (uint32_t I = 0; I < NumBlocks; ++I) {
    const Id Label = Nodes[I];
    const uint32_t LabelNode = node(Label, I);
    for (uint32_t E = SuccBegin[I]; E < SuccBegin[I + 1]; ++E) {
      uint32_t Slot = Fill[SuccNodes[E]]++;
      PredIds[Slot] = Label;
      PredNodes[Slot] = LabelNode;
    }
  }

  // Depth-first search from the entry for reachability and postorder, in
  // the order a recursive visit of each node's successor list takes.
  Reachable.assign(NumNodes, 0);
  EntryNode = node(Entry);
  std::vector<uint32_t> Postorder;
  std::vector<std::pair<uint32_t, uint32_t>> Stack; // node, next successor
  Reachable[EntryNode] = 1;
  Stack.push_back({EntryNode, 0});
  while (!Stack.empty()) {
    auto &[Node, Next] = Stack.back();
    uint32_t Begin = Node < NumBlocks ? SuccBegin[Node] : 0;
    uint32_t End = Node < NumBlocks ? SuccBegin[Node + 1] : 0;
    if (Begin + Next < End) {
      uint32_t Succ = SuccNodes[Begin + Next++];
      if (!Reachable[Succ]) {
        Reachable[Succ] = 1;
        Stack.push_back({Succ, 0});
      }
      continue;
    }
    Postorder.push_back(Node);
    Stack.pop_back();
  }
  RpoNodes.assign(Postorder.rbegin(), Postorder.rend());
  Rpo.reserve(RpoNodes.size());
  for (uint32_t Node : RpoNodes)
    Rpo.push_back(Nodes[Node]);
}

uint32_t Cfg::findOrAddTarget(Id Target) {
  uint32_t Found = node(Target);
  if (Found != NoNode)
    return Found;
  Nodes.push_back(Target);
  return static_cast<uint32_t>(Nodes.size() - 1);
}

uint32_t Cfg::node(Id Block, uint32_t Hint) const {
  if (Hint < NumBlocks && UniqueLabels && Nodes[Hint] == Block)
    return Hint;
  auto It = std::lower_bound(
      ByLabel.begin(), ByLabel.end(), Block,
      [](const std::pair<Id, uint32_t> &Entry, Id Key) {
        return Entry.first < Key;
      });
  if (It != ByLabel.end() && It->first == Block)
    return It->second;
  for (size_t N = NumBlocks; N < Nodes.size(); ++N)
    if (Nodes[N] == Block)
      return static_cast<uint32_t>(N);
  return NoNode;
}

std::span<const Id> Cfg::successors(Id Block) const {
  uint32_t N = node(Block);
  if (N == NoNode || N >= NumBlocks)
    return {};
  return {SuccIds.data() + SuccBegin[N], SuccIds.data() + SuccBegin[N + 1]};
}

std::span<const Id> Cfg::predecessors(Id Block) const {
  uint32_t N = node(Block);
  if (N == NoNode)
    return {};
  return {PredIds.data() + PredBegin[N], PredIds.data() + PredBegin[N + 1]};
}

bool Cfg::matches(const Function &Func) const {
  if (Func.Blocks.size() != NumBlocks)
    return false;
  for (uint32_t I = 0; I < NumBlocks; ++I) {
    const BasicBlock &Block = Func.Blocks[I];
    if (Block.LabelId != Nodes[I])
      return false;
    Id Succs[2];
    unsigned Count = Block.successors(Succs);
    if (Count != SuccBegin[I + 1] - SuccBegin[I])
      return false;
    for (unsigned S = 0; S < Count; ++S)
      if (Succs[S] != SuccIds[SuccBegin[I] + S])
        return false;
  }
  return true;
}
