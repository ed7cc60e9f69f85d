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
//===----------------------------------------------------------------------===//

#ifndef TESTS_REFERENCELOOKUPS_H
#define TESTS_REFERENCELOOKUPS_H

#include "ir/InstructionDescriptor.h"

namespace spvfuzz {
namespace reference {

const Instruction *findDef(const Module &M, Id TheId);
std::pair<const Function *, const BasicBlock *> findBlockDef(const Module &M,
                                                             Id LabelId);
LocatedInstruction findBase(Module &M, Id Base, bool &BaseIsLabel);
bool idIsFreshInModule(const Module &M, Id TheId);

} // namespace reference
} // namespace spvfuzz

#endif // TESTS_REFERENCELOOKUPS_H
