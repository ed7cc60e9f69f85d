//===- core/TransformationUtil.h - Shared transformation helpers -*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the concrete transformation implementations.
///
//===----------------------------------------------------------------------===//

#ifndef CORE_TRANSFORMATIONUTIL_H
#define CORE_TRANSFORMATIONUTIL_H

#include "core/Transformation.h"

#include <initializer_list>

namespace spvfuzz {

/// True if \p TheId is not used as any result id, label, or function id in
/// \p M, is not 0 and is below Module::MaxBound, i.e. it may be introduced
/// as a fresh id and the module stays within SPIR-V's id bound.
bool idIsFreshInModule(const Module &M, Id TheId);

/// All ids in \p Ids are fresh in \p M and pairwise distinct.
bool idsAreFreshAndDistinct(const Module &M, const std::vector<Id> &Ids);

/// Returns the id of the first bool/int type declaration, or InvalidId.
Id findBoolTypeId(const Module &M);
Id findIntTypeId(const Module &M);

/// True if function \p From transitively calls function \p To (used to
/// block call-graph cycles when adding calls).
bool functionReachesViaCalls(const Module &M, Id From, Id To);

/// Clones the module and facts, applies \p T without checking its
/// precondition, and validates the result. Used as a belt-and-braces
/// component of the preconditions of the intricate CFG-restructuring
/// transformations (inlining, kill-replacement, instruction propagation)
/// and of AddFunction, whose full static legality conditions are subtle.
///
/// \p M must be valid. The validator checks the ids, the entry point and
/// the globals of the clone, but the bodies of only the functions T
/// changes: those its describeChange names (resolved against M's id
/// table) and those it appends. Every other function is unchanged and was
/// valid, so the verdict is the whole-module validator's. That needs T's
/// apply to change no function outside its statement; a change that does
/// not resolve, touches the globals or changes a signature is validated
/// whole.
bool applyKeepsModuleValid(const Transformation &T, const Module &M,
                           const FactManager &Facts);

/// Called with every clone applyKeepsModuleValid validates and its
/// verdict. Tests install one to compare the verdict with whole-module
/// validation; it may be called from several threads at once. nullptr,
/// the default, calls nothing.
using CloneCheckObserver = void (*)(const Module &Clone, bool Valid);
void setCloneCheckObserver(CloneCheckObserver Observer);

/// Resolves a descriptor against a const module. locateInstruction needs a
/// mutable module only to hand back mutable pointers; preconditions use
/// this wrapper for read-only resolution.
LocatedInstruction locateInstructionConst(const Module &M,
                                          const InstructionDescriptor &Desc);

/// Sets \p Out, a transformation's describeChange result, to \p What at
/// \p Sites.
void stateChange(ModuleChange &Out, ModuleChange::Kind What,
                 std::initializer_list<Id> Sites = {});

/// Removes phi entries for predecessor \p Pred from every phi of \p Block.
void removePhiEntriesForPred(BasicBlock &Block, Id Pred);

/// In every phi of \p Block, renames predecessor \p From to \p To.
void renamePhiPred(BasicBlock &Block, Id From, Id To);

} // namespace spvfuzz

#endif // CORE_TRANSFORMATIONUTIL_H
