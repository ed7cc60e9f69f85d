//===- analysis/ModuleAnalysis.h - Def/use and availability -----*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A module-wide snapshot combining definition sites and per-function CFGs
/// and dominator trees. Transformations consult it to decide whether an id
/// is *available* at a program point (defined in a dominating position),
/// which is MiniSPV's (and SPIR-V's) core scoping rule.
///
/// Definition sites are DefSlots, positions in the module (Module::slotIds),
/// and every answer is derived from the slot's position, as Module::findDef
/// derives its own. An analysis refreshed with ids (the TransformationApplier
/// of the fuzzer and of sequence replay) reads the module's own id table,
/// which the applier refreshes in the parts each transformation changed; one
/// built over a const module (the validator, a fuzzer sweep's snapshot)
/// fills a table of its own the same way. Either way an id defined more than
/// once is undefined to the analysis. CFGs and dominator trees are computed
/// on first query (most precondition checks never ask for them), from the
/// module as it is then, and a refresh keeps each function's while its
/// block labels and terminator successors are unchanged, so a refreshed
/// analysis answers exactly as a fresh one would. The lazy state makes a
/// ModuleAnalysis instance single-threaded: construct one per thread, never
/// share.
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

  /// Re-analyses \p M (which must outlive the analysis) into a table of
  /// the analysis's own.
  void refresh(const Module &M);

  /// The same, rebuilding \p M's id table and reading it.
  void refreshWithIds(Module &M);

  /// After a mutation of the analysed module \p M that \p Change was
  /// resolved for (Module::resolveChange), refreshes M's id table in the
  /// changed parts only, and checks the graphs of the changed functions
  /// only: the same answers as refreshWithIds(M), in a walk of what
  /// changed. Falls back to that full walk where a part cannot be refreshed
  /// alone.
  void refreshWithIds(Module &M, const ChangedParts &Change);

  /// How many refreshes in part fell back to the whole-module walk over
  /// this analysis's life: a change that names no parts, or parts that
  /// cannot be refreshed alone.
  size_t wholeWalkFallbacks() const { return WholeWalkFallbacks; }

  /// Where \p TheId is defined, or nullptr if nothing or more than one
  /// thing defines it.
  const DefSlot *slot(Id TheId) const {
    const DefSlot *Slot =
        (ReadsModuleIds ? M->Ids.Slots : OwnSlots).find(TheId);
    return Slot && Slot->SlotKind != DefSlot::Kind::None &&
                   Slot->SlotKind != DefSlot::Kind::Ambiguous
               ? Slot
               : nullptr;
  }

  /// O(1) equivalent of Module::findDef over the analysed module: the
  /// defining instruction of \p TheId, or nullptr for unknown ids and
  /// labels.
  const Instruction *def(Id TheId) const {
    const DefSlot *Slot = slot(TheId);
    return Slot ? M->instructionAt(*Slot) : nullptr;
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

  /// Starts analysing \p M: keeps each function's graphs that still
  /// describe it.
  void rebind(const Module &M);
  /// Drops function \p F's graphs unless they still describe it.
  void checkGraphs(size_t F);

  /// The state of function \p FuncId, with its Cfg built.
  FunctionState &state(Id FuncId) const;
  const DominatorTree &domTree(FunctionState &State) const;

  const Module *M = nullptr;
  /// Set by refreshWithIds: the slots are M's own table, not OwnSlots.
  bool ReadsModuleIds = false;
  IdTable<DefSlot> OwnSlots;
  // Lazily materialized query state (see file comment: single-threaded).
  mutable std::vector<FunctionState> Funcs;
  size_t WholeWalkFallbacks = 0;
};

} // namespace spvfuzz

#endif // ANALYSIS_MODULEANALYSIS_H
