//===- tests/ReferenceLookups.h - Linear reference lookups -----*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The linear module scans that Module::findDef, Module::findBlockDef,
/// locateInstruction's base lookup and idIsFreshInModule were before the
/// module's positional id table, kept for tests only. Each walks the
/// module from the front and answers with the first match. The table-backed
/// lookups must give the same answers, whatever state the table is in.
///
/// Also the fuzzer's loop over candidate values that AvailableValueIndex
/// replaced: every global, parameter and body definition of the module as
/// it is now, each asked of a sweep's snapshot analysis.
///
//===----------------------------------------------------------------------===//

#ifndef TESTS_REFERENCELOOKUPS_H
#define TESTS_REFERENCELOOKUPS_H

#include "analysis/ModuleAnalysis.h"
#include "core/AvailableValues.h"
#include "ir/InstructionDescriptor.h"

namespace spvfuzz {
namespace reference {

const Instruction *findDef(const Module &M, Id TheId);
std::pair<const Function *, const BasicBlock *> findBlockDef(const Module &M,
                                                             Id LabelId);
LocatedInstruction findBase(Module &M, Id Base, bool &BaseIsLabel);
bool idIsFreshInModule(const Module &M, Id TheId);

/// The values of type \p TypeId (any when InvalidId) that \p Snapshot makes
/// available before instruction \p Index of block \p BlockId of function
/// \p FuncId, visiting the candidates of \p M, leaving out those \p Facts
/// marks irrelevant unless \p AllowIrrelevant.
std::vector<ValueInfo> availableValues(const Module &M,
                                       const ModuleAnalysis &Snapshot,
                                       const FactManager &Facts, Id FuncId,
                                       Id BlockId, size_t Index, Id TypeId,
                                       bool AllowIrrelevant);

} // namespace reference
} // namespace spvfuzz

#endif // TESTS_REFERENCELOOKUPS_H
