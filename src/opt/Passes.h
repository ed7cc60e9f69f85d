//===- opt/Passes.h - Optimization passes (compiler under test) -*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimizer that plays the role of the SPIR-V compilers under test.
/// Each pass is semantics-preserving when its injected bugs are disabled
/// (verified by property tests); with bugs enabled it may crash with a
/// signature or silently miscompile, which is what the testing campaigns
/// hunt for.
///
//===----------------------------------------------------------------------===//

#ifndef OPT_PASSES_H
#define OPT_PASSES_H

#include "opt/BugHost.h"

#include "ir/Module.h"

#include <optional>

namespace spvfuzz {

enum class OptPassKind : uint8_t {
  FrontendCheck, // diagnostics only; hosts the "frontend" crash bugs
  SimplifyCfg,
  DeadBranchElim,
  ConstantFold,
  CopyPropagation,
  LoadStoreForwarding,
  DeadStoreElim,
  Inliner,
  LocalCSE,
  PhiSimplify,
  BlockLayout,
  Dce,
};

const char *optPassName(OptPassKind Kind);

/// True for the passes that look ids up in the module (findDef and the
/// queries built on it) when \p Bugs are enabled; runOptPass refreshes the
/// module's id table on entry to those only. simplify-cfg,
/// copy-propagation, phi-simplify, block-layout and dce read blocks and
/// instructions directly, and frontend-check looks ids up per branch only
/// for CrashNegatedConstantBranch.
bool optPassLooksUpIds(OptPassKind Kind, const BugHost &Bugs);

/// The outcome of one pass: nullopt, or the crash signature of an injected
/// crash bug that fired.
using PassCrash = std::optional<std::string>;

/// The pass that hosts \p Point: the only pass whose run can fire the bug.
/// This is the triage subsystem's ground truth — an attribution is correct
/// iff it names bugHostPass of the injected point behind the signature.
OptPassKind bugHostPass(BugPoint Point);

/// Maps a crash signature back to the bug point that owns it, restricted
/// to \p Bugs' enabled set (signatures are per-point, so the first match
/// is the only match). Returns false for the shared miscompilation marker,
/// the timeout/tool-error pseudo-signatures, and signatures of bugs the
/// host does not enable.
bool bugPointOfSignature(const BugHost &Bugs, const std::string &Signature,
                         BugPoint &Out);

/// Runs one pass over \p M in place.
PassCrash runOptPass(OptPassKind Kind, Module &M, const BugHost &Bugs);

/// Runs a pipeline; stops at the first crash.
PassCrash runPipeline(const std::vector<OptPassKind> &Pipeline, Module &M,
                      const BugHost &Bugs);

} // namespace spvfuzz

#endif // OPT_PASSES_H
