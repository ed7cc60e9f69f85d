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
/// Two engines live behind the same API:
///
///  * ExecEngine::Lowered (the default) lowers the module to register
///    bytecode (Bytecode.h, Lower.h) and runs it on a threaded-dispatch
///    executor. When the lowerer cannot prove exact equivalence — or a
///    uniform input does not match its declared shape — the run falls
///    back to the tree interpreter, so results are always
///    interpret()-identical.
///  * ExecEngine::Tree runs the reference interpreter directly; it exists
///    for differential testing and for byte-for-byte campaign
///    comparisons against the lowered engine.
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

/// Which execution engine an Executable (and everything above it) uses.
enum class ExecEngine : uint8_t {
  Lowered, // register-bytecode executor, tree fallback when unprovable
  Tree,    // reference tree interpreter
};

/// "lowered" / "tree" (CLI flag values and bench labels).
const char *execEngineName(ExecEngine Engine);

/// Parses "lowered"/"tree"; returns false on unknown names.
bool execEngineFromName(const std::string &Name, ExecEngine &Out);

class Executable {
public:
  /// Compiles \p M for \p Engine. \p ArtifactId is the caller's identity
  /// for this compilation (targets derive it from the module hash and
  /// target name); it is what EvalCache keys on.
  static std::shared_ptr<const Executable>
  compile(Module M, ExecEngine Engine = ExecEngine::Lowered,
          uint64_t ArtifactId = 0);

  uint64_t id() const { return ArtifactId; }
  ExecEngine engine() const { return Engine; }

  /// True when runs actually go through the bytecode executor (lowered
  /// engine and the lowerer proved the module).
  bool loweredActive() const { return Prog.Ok; }

  const Module &module() const { return M; }

  /// Executes on one input. Observationally identical to
  /// interpret(module(), Input, Options), including telemetry counters.
  ExecResult run(const ShaderInput &Input,
                 const InterpreterOptions &Options = InterpreterOptions()) const;

  size_t approxBytes() const;

private:
  Executable(Module M, ExecEngine Engine, uint64_t ArtifactId);

  Module M;
  ExecEngine Engine;
  uint64_t ArtifactId;
  bytecode::LoweredProgram Prog; // Ok == false for Tree or unprovable
};

} // namespace spvfuzz

#endif // EXEC_EXECUTABLE_H
