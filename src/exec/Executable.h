//===- exec/Executable.h - Compiled execution artifact ----------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The product execution path. An Executable is an immutable, shareable
/// artifact compiled once from a (post-optimizer) Module and then run on
/// any number of ShaderInputs — the campaign's scan, reduction and dedup
/// loops all evaluate through it, and EvalCache keys on its artifact id
/// so that every phase touching the same lowered program shares one
/// compilation.
///
/// compile() lowers the module to register bytecode (Bytecode.h, Lower.h)
/// for a threaded-dispatch executor when the lowerer proves the lowering
/// exactly equivalent; otherwise the lowering is skipped and every run
/// goes through the tree interpreter. A uniform input that does not match
/// its declared shape also runs on the tree interpreter. Which path a run
/// takes is the artifact's own decision, never the caller's: results and
/// telemetry counters are interpret()-identical either way.
///
/// interpret() (Interpreter.h) remains the semantics of record; outside
/// of exec unit tests and differential oracles, execution goes through
/// this API.
///
//===----------------------------------------------------------------------===//

#ifndef EXEC_EXECUTABLE_H
#define EXEC_EXECUTABLE_H

#include "exec/Bytecode.h"
#include "exec/Interpreter.h"
#include "ir/Module.h"

#include <memory>

namespace spvfuzz {

class Executable {
public:
  /// Compiles \p M, lowering it when the lowerer can prove it.
  /// \p ArtifactId is the caller's identity for this compilation (targets
  /// derive it from the module hash and target name); it is what EvalCache
  /// keys on.
  static std::shared_ptr<const Executable> compile(Module M,
                                                   uint64_t ArtifactId = 0);

  uint64_t id() const { return ArtifactId; }

  /// True when the lowerer proved the module, so runs go through the
  /// bytecode executor (shape-matched inputs) rather than the tree
  /// interpreter.
  bool loweredActive() const { return Prog.Ok; }

  const Module &module() const { return M; }

  /// Executes on one input. Observationally identical to
  /// interpret(module(), Input, Options), including telemetry counters.
  ExecResult run(const ShaderInput &Input,
                 const InterpreterOptions &Options = InterpreterOptions()) const;

  size_t approxBytes() const;

private:
  Executable(Module M, uint64_t ArtifactId);

  Module M;
  uint64_t ArtifactId;
  bytecode::LoweredProgram Prog; // Ok == false when the lowering is unproven
};

} // namespace spvfuzz

#endif // EXEC_EXECUTABLE_H
