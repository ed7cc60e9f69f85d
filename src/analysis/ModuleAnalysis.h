//===- analysis/ModuleAnalysis.h - Def/use and availability -----*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A module-wide snapshot combining definition sites, use counts, and
/// per-function CFGs and dominator trees. Transformations consult it to
/// decide whether an id is *available* at a program point (defined in a
/// dominating position), which is MiniSPV's (and SPIR-V's) core scoping
/// rule.
///
/// The def-site index is taken when the analysis is built or refreshed;
/// use counts, CFGs and dominator trees are computed on first query (most
/// precondition checks never ask for them), from the module as it is then.
/// refresh() re-takes the def-site index into the same flat storage and
/// keeps each function's CFG and dominator tree while the function's block
/// labels and terminator successors are unchanged, so a refreshed analysis
/// answers exactly as a fresh one would. The fuzzer and sequence replay
/// each keep one per variant and refresh it after every applied
/// transformation. The lazy state makes a ModuleAnalysis instance
/// single-threaded: construct one per thread, never share.
///
//===----------------------------------------------------------------------===//

#ifndef ANALYSIS_MODULEANALYSIS_H
#define ANALYSIS_MODULEANALYSIS_H

#include "analysis/Cfg.h"
#include "analysis/Dominators.h"

#include <memory>

namespace spvfuzz {

class ModuleAnalysis {
public:
  /// An empty analysis; refresh() before querying.
  ModuleAnalysis() = default;
  explicit ModuleAnalysis(const Module &M) { refresh(M); }

  /// Re-analyses \p M (which must outlive the analysis).
  void refresh(const Module &M);

  /// The same, also rebuilding \p M's id table in the same module walk:
  /// what an owner that keeps both calls after each mutation.
  void refreshWithIds(Module &M);

  struct DefInfo {
    enum class Kind : uint8_t { None, Global, FunctionDef, Param, Body, Label };
    Kind DefKind = Kind::None;
    Id FuncId = InvalidId;  // for Param/Body/Label/FunctionDef
    Id BlockId = InvalidId; // for Body/Label
    /// Body: index into the block. Label: the block's instruction count.
    uint32_t Index = 0;
    /// Positions of the function and (Body/Label) the block.
    uint32_t FuncIndex = 0;
    uint32_t BlockIndex = 0;
    /// The defining instruction; nullptr for labels (which, as in
    /// Module::findDef, have no instruction). Valid while the analysed
    /// module is unchanged.
    const Instruction *Inst = nullptr;
  };

  /// Returns the definition site of \p TheId, or nullptr.
  const DefInfo *defInfo(Id TheId) const {
    const DefInfo *Info = Defs.find(TheId);
    return Info && Info->DefKind != DefInfo::Kind::None ? Info : nullptr;
  }

  /// O(1) equivalent of Module::findDef over the analysed module: the
  /// defining instruction of \p TheId, or nullptr for unknown ids and
  /// labels.
  const Instruction *def(Id TheId) const {
    const DefInfo *Info = defInfo(TheId);
    return Info ? Info->Inst : nullptr;
  }

  /// True if \p ValueId may be used by the instruction at position
  /// (\p FuncId, \p BlockId, \p InstIndex): globals and the function's
  /// parameters are available everywhere in the function; body definitions
  /// must precede the use in the same block or strictly dominate its block.
  bool idAvailableBefore(Id ValueId, Id FuncId, Id BlockId,
                         size_t InstIndex) const;

  /// True if \p ValueId is available at the *end* of \p BlockId, the rule
  /// for phi incoming values.
  bool idAvailableAtEnd(Id ValueId, Id FuncId, Id BlockId) const;

  /// Number of id uses of \p TheId across the module (including phi and
  /// branch operands and result types). Counted on first call.
  size_t useCount(Id TheId) const;

  /// Built on first query per function.
  const Cfg &cfg(Id FuncId) const;
  const DominatorTree &domTree(Id FuncId) const;

private:
  /// One function's lazily built graphs, by function position.
  struct FunctionState {
    Id FuncId = InvalidId;
    std::unique_ptr<Cfg> Graph;
    std::unique_ptr<DominatorTree> Dom;
  };

  void beginRefresh(const Module &M);
  /// Records the definition of \p TheId at \p Where (last one wins).
  void record(Id TheId, const DefSlot &Where, const Function *Func,
              const BasicBlock *Block, const Instruction *Inst);
  void endRefresh();

  /// The state of function \p FuncId, with its Cfg built.
  FunctionState &state(Id FuncId) const;
  const DominatorTree &domTree(FunctionState &State) const;

  const Module *M = nullptr;
  IdTable<DefInfo> Defs; // sized to the module bound
  // Lazily materialized query state (see file comment: single-threaded).
  mutable std::vector<FunctionState> Funcs;
  mutable bool UsesBuilt = false;
  mutable IdTable<size_t> Uses;
};

} // namespace spvfuzz

#endif // ANALYSIS_MODULEANALYSIS_H
