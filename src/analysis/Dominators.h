//===- analysis/Dominators.h - Dominator tree -------------------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree over a function's CFG, via the Cooper-Harvey-Kennedy
/// iterative algorithm. Needed by the validator (MiniSPV inherits SPIR-V's
/// rule that a block must precede the blocks it dominates and that uses
/// must be dominated by definitions) and by several transformations
/// (MoveBlockDown, PropagateInstructionUp).
///
/// Dominance queries are answered in O(1) from a DFS interval numbering of
/// the tree computed at construction time: A dominates B iff A's interval
/// contains B's. The tree is stored per Cfg node, in flat arrays.
///
//===----------------------------------------------------------------------===//

#ifndef ANALYSIS_DOMINATORS_H
#define ANALYSIS_DOMINATORS_H

#include "analysis/Cfg.h"

namespace spvfuzz {

class DominatorTree {
public:
  /// \p Graph must outlive the tree, which answers queries by id through
  /// it.
  DominatorTree(const Function &Func, const Cfg &Graph);

  /// Returns the immediate dominator of \p Block, or InvalidId for the
  /// entry block and for unreachable blocks.
  Id immediateDominator(Id Block) const;

  /// True if \p A dominates \p B (reflexively). Unreachable blocks
  /// dominate nothing and are dominated by nothing (except themselves).
  bool dominates(Id A, Id B) const {
    if (A == B)
      return true;
    uint32_t NodeA = Graph->node(A), NodeB = Graph->node(B);
    return NodeA != Cfg::NoNode && NodeB != Cfg::NoNode &&
           dominatesNode(NodeA, NodeB);
  }

  /// True if \p A strictly dominates \p B.
  bool strictlyDominates(Id A, Id B) const { return A != B && dominates(A, B); }

  /// dominates() over the Cfg's nodes.
  bool dominatesNode(uint32_t A, uint32_t B) const {
    if (A == B)
      return true;
    const Node &NA = Nodes[A], &NB = Nodes[B];
    return NA.In != 0 && NB.In != 0 && NA.In <= NB.In && NB.Out <= NA.Out;
  }

private:
  struct Node {
    uint32_t Idom = Cfg::NoNode;
    uint32_t In = 0;  // DFS entry time in the dominator tree; 0: not in it
    uint32_t Out = 0; // DFS exit time
  };

  const Cfg *Graph;
  std::vector<Node> Nodes; // per Cfg node
};

} // namespace spvfuzz

#endif // ANALYSIS_DOMINATORS_H
