//===- analysis/Dominators.cpp - Dominator tree ---------------------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"

#include <vector>

using namespace spvfuzz;

DominatorTree::DominatorTree(const Function &Func, const Cfg &Graph)
    : Graph(&Graph) {
  (void)Func;
  const uint32_t Entry = Graph.entryNode();
  if (Entry == Cfg::NoNode)
    return;
  const size_t NumNodes = Graph.nodeCount();
  const std::vector<uint32_t> &Rpo = Graph.reversePostorderNodes();

  std::vector<uint32_t> RpoIndex(NumNodes, 0);
  for (size_t I = 0, E = Rpo.size(); I != E; ++I)
    RpoIndex[Rpo[I]] = static_cast<uint32_t>(I);

  std::vector<uint32_t> Idom(NumNodes, Cfg::NoNode);
  auto Intersect = [&](uint32_t A, uint32_t B) {
    while (A != B) {
      while (RpoIndex[A] > RpoIndex[B])
        A = Idom[A];
      while (RpoIndex[B] > RpoIndex[A])
        B = Idom[B];
    }
    return A;
  };

  Idom[Entry] = Entry;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t Block : Rpo) {
      if (Block == Entry)
        continue;
      uint32_t NewIdom = Cfg::NoNode;
      for (uint32_t Pred : Graph.predecessorNodes(Block)) {
        if (!Graph.nodeReachable(Pred) || Idom[Pred] == Cfg::NoNode)
          continue;
        NewIdom = NewIdom == Cfg::NoNode ? Pred : Intersect(NewIdom, Pred);
      }
      if (NewIdom == Cfg::NoNode)
        continue;
      if (Idom[Block] != NewIdom) {
        Idom[Block] = NewIdom;
        Changed = true;
      }
    }
  }

  // Number the tree with DFS intervals so dominates() is two loads
  // instead of a chain walk: A dominates B iff In[A] <= In[B] and
  // Out[B] <= Out[A]. The entry's idom is conventionally "none".
  Nodes.assign(NumNodes, Node());
  std::vector<uint32_t> ChildBegin(NumNodes + 1, 0);
  for (uint32_t N = 0; N < NumNodes; ++N)
    if (N != Entry && Idom[N] != Cfg::NoNode) {
      Nodes[N].Idom = Idom[N];
      ++ChildBegin[Idom[N] + 1];
    }
  for (size_t N = 0; N < NumNodes; ++N)
    ChildBegin[N + 1] += ChildBegin[N];
  std::vector<uint32_t> Children(ChildBegin[NumNodes]);
  std::vector<uint32_t> Fill(ChildBegin.begin(), ChildBegin.end() - 1);
  for (uint32_t N = 0; N < NumNodes; ++N)
    if (Nodes[N].Idom != Cfg::NoNode)
      Children[Fill[Nodes[N].Idom]++] = N;

  uint32_t Clock = 0;
  // Iterative DFS; the second visit of a frame assigns the exit time.
  std::vector<std::pair<uint32_t, bool>> Stack;
  Stack.push_back({Entry, false});
  while (!Stack.empty()) {
    auto [Block, Done] = Stack.back();
    Stack.pop_back();
    Node &N = Nodes[Block];
    if (Done) {
      N.Out = ++Clock;
      continue;
    }
    N.In = ++Clock;
    Stack.push_back({Block, true});
    for (uint32_t C = ChildBegin[Block]; C < ChildBegin[Block + 1]; ++C)
      Stack.push_back({Children[C], false});
  }
}

Id DominatorTree::immediateDominator(Id Block) const {
  uint32_t N = Graph->node(Block);
  if (N == Cfg::NoNode || Nodes.empty() || Nodes[N].Idom == Cfg::NoNode)
    return InvalidId;
  return Graph->nodeId(Nodes[N].Idom);
}
