//===- tests/ReferencePasses.h - Quadratic reference passes ----*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The original fixpoint implementations of SimplifyCfg and DCE, kept for
/// tests only. SimplifyCfg rebuilds the CFG and restarts its scan after
/// every block merge; DCE recounts every use in the module on every round.
/// The production passes in opt/Passes.cpp are linear rewrites that must
/// produce byte-identical modules and identical crash verdicts; these are
/// the oracle they are compared against.
///
//===----------------------------------------------------------------------===//

#ifndef TESTS_REFERENCEPASSES_H
#define TESTS_REFERENCEPASSES_H

#include "opt/Passes.h"

namespace spvfuzz {
namespace reference {

PassCrash runSimplifyCfg(Module &M, const BugHost &Bugs);
PassCrash runDce(Module &M, const BugHost &Bugs);

} // namespace reference
} // namespace spvfuzz

#endif // TESTS_REFERENCEPASSES_H
