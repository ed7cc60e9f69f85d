//===- analysis/Cfg.h - Control-flow graph utilities ------------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Successor/predecessor lists and reachability over a function's blocks,
/// in flat arrays indexed by node. Node i is block i of the function; a
/// branch target that names no block of the function (only possible in a
/// module the validator rejects) gets a node after the blocks, so every
/// query answers exactly as a per-id map would.
///
//===----------------------------------------------------------------------===//

#ifndef ANALYSIS_CFG_H
#define ANALYSIS_CFG_H

#include "ir/Module.h"

#include <cstdint>
#include <span>

namespace spvfuzz {

/// A snapshot of a function's control-flow graph. It depends only on the
/// block labels, in order, and each block's terminator successors, so it
/// stays valid across mutations that keep those (see matches()).
class Cfg {
public:
  static constexpr uint32_t NoNode = UINT32_MAX;

  explicit Cfg(const Function &Func);

  /// The successors of \p Block, in terminator operand order.
  std::span<const Id> successors(Id Block) const;

  /// The blocks branching to \p Block, in block order, once per edge (a
  /// conditional branch with equal targets appears twice).
  std::span<const Id> predecessors(Id Block) const;

  /// True if \p Block is reachable from the entry block (which always is).
  bool isReachable(Id Block) const {
    uint32_t N = node(Block);
    return N != NoNode && Reachable[N];
  }

  Id entryId() const { return Entry; }

  /// Block ids in reverse-postorder over reachable blocks.
  const std::vector<Id> &reversePostorder() const { return Rpo; }

  /// True if Cfg(\p Func) would build this same graph now: the same block
  /// labels in the same order, with the same terminator successors.
  bool matches(const Function &Func) const;

  // --- Node-level access (DominatorTree, ModuleAnalysis) -----------------

  /// The node of \p Block, or NoNode. \p Hint, a block index, is tried
  /// first; a label shared by several blocks names the last of them.
  uint32_t node(Id Block, uint32_t Hint = NoNode) const;
  size_t nodeCount() const { return Nodes.size(); }
  Id nodeId(uint32_t Node) const { return Nodes[Node]; }
  uint32_t entryNode() const { return EntryNode; }
  bool nodeReachable(uint32_t Node) const { return Reachable[Node] != 0; }
  std::span<const uint32_t> predecessorNodes(uint32_t Node) const {
    return {PredNodes.data() + PredBegin[Node],
            PredNodes.data() + PredBegin[Node + 1]};
  }
  const std::vector<uint32_t> &reversePostorderNodes() const {
    return RpoNodes;
  }

private:
  uint32_t findOrAddTarget(Id Target);

  Id Entry = InvalidId;
  uint32_t EntryNode = NoNode;
  uint32_t NumBlocks = 0;
  bool UniqueLabels = true;
  std::vector<Id> Nodes; // labels of the blocks, then the stray targets
  std::vector<std::pair<Id, uint32_t>> ByLabel; // sorted, one per label
  std::vector<uint32_t> SuccBegin;              // per block, plus one
  std::vector<Id> SuccIds;
  std::vector<uint32_t> SuccNodes;
  std::vector<uint32_t> PredBegin; // per node, plus one
  std::vector<Id> PredIds;
  std::vector<uint32_t> PredNodes;
  std::vector<uint8_t> Reachable; // per node
  std::vector<Id> Rpo;
  std::vector<uint32_t> RpoNodes;
};

} // namespace spvfuzz

#endif // ANALYSIS_CFG_H
