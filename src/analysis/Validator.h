//===- analysis/Validator.h - MiniSPV module validation ---------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural, scoping and type validation of MiniSPV modules, mirroring
/// the SPIR-V validation rules that matter for this reproduction:
/// SSA-unique ids, definitions dominating uses, entry-block-first and
/// dominator-before-dominated block layout, phi/predecessor agreement, and
/// per-opcode type rules. Every transformation must map valid modules to
/// valid modules; the property-based tests enforce this with the validator.
///
/// Operand shapes are checked before anything reads them, so any module
/// readModuleText accepts gets diagnostics, never a crash. Diagnostic text
/// is built only when an error is reported: validating a valid module
/// allocates no strings.
///
//===----------------------------------------------------------------------===//

#ifndef ANALYSIS_VALIDATOR_H
#define ANALYSIS_VALIDATOR_H

#include "ir/Module.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace spvfuzz {

/// Validates \p M and returns diagnostics; an empty result means valid.
std::vector<std::string> validateModule(const Module &M);

/// validateModule(M).empty(), without building any diagnostic text.
bool isValidModule(const Module &M);

/// isValidModule(M), checking the bodies of only the functions at the
/// positions in \p Functions; the ids, the entry point and the globals are
/// checked whole. It answers as isValidModule does when M was valid before
/// a mutation that changed the bodies of only those functions (or appended
/// them), and no global and no function signature.
bool isValidModuleInFunctions(const Module &M,
                              std::span<const uint32_t> Functions);

} // namespace spvfuzz

#endif // ANALYSIS_VALIDATOR_H
