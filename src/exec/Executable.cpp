//===- exec/Executable.cpp - Bytecode executor ----------------------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// The dispatch loop for the register bytecode produced by Lower.cpp.
// Design points that matter for the throughput target:
//
//  * operands come from SoA arrays indexed by a single program counter —
//    no per-instruction decode, no hashing, no Value heap traffic;
//  * dispatch is a computed-goto threaded loop on GNU compilers (a plain
//    switch elsewhere);
//  * the step budget is charged once per block (BlockInfo::Cost), the
//    same accounting interpret() uses, so timeout outcomes and exec.steps
//    totals are engine-independent;
//  * frames live in one contiguous register stack reused across runs via
//    thread-local state, so a batch run does no steady-state allocation.
//
//===----------------------------------------------------------------------===//

#include "exec/Executable.h"

#include "exec/Lower.h"
#include "support/Telemetry.h"

#include <algorithm>

using namespace spvfuzz;
using namespace spvfuzz::bytecode;

const char *spvfuzz::execEngineName(ExecEngine Engine) {
  return Engine == ExecEngine::Lowered ? "lowered" : "tree";
}

bool spvfuzz::execEngineFromName(const std::string &Name, ExecEngine &Out) {
  if (Name == "lowered") {
    Out = ExecEngine::Lowered;
    return true;
  }
  if (Name == "tree") {
    Out = ExecEngine::Tree;
    return true;
  }
  return false;
}

namespace {

/// Reusable per-thread execution state: the register stack, the memory
/// cell store (globals first, function-local allocations appended), and
/// the phi-move gather buffer.
struct ExecState {
  std::vector<int32_t> Regs;
  std::vector<int32_t> Memory;
  std::vector<int32_t> Scratch;
  uint64_t Steps = 0;
};

thread_local ExecState TlsState;

constexpr int StatusOk = -1;
constexpr int StatusKilled = -2;

// Returns StatusOk, StatusKilled, or a fault-message index (>= 0). The
// frame for FnIndex must already be pushed at Base with parameters
// filled; the callee leaves its return value in [Base, ReturnWidth).
int execute(const LoweredProgram &P, ExecState &St, uint32_t FnIndex,
            size_t Base, uint32_t Depth, const InterpreterOptions &Options) {
  const LoweredFunction &F = P.Functions[FnIndex];
  const BcOp *Ops = F.Body.Ops.data();
  const uint32_t *OA = F.Body.A.data();
  const uint32_t *OB = F.Body.B.data();
  const uint32_t *OC = F.Body.C.data();
  const uint32_t *OD = F.Body.D.data();
  const uint32_t *OE = F.Body.E.data();
  int32_t *R = St.Regs.data() + Base;
  uint32_t Block = 0;
  size_t PC = 0;
  size_t Cur = 0;

#define SPV_TAKE_EDGE(EdgeIndex)                                               \
  do {                                                                         \
    const Edge &E = F.Edges[(EdgeIndex)];                                      \
    if (E.FaultIndex != NoSlot)                                                \
      return static_cast<int>(E.FaultIndex);                                   \
    if (E.MovesBegin != E.MovesEnd) {                                          \
      St.Scratch.clear();                                                      \
      for (uint32_t MI = E.MovesBegin; MI != E.MovesEnd; ++MI) {               \
        const PhiMove &Mv = F.Moves[MI];                                       \
        St.Scratch.insert(St.Scratch.end(), R + Mv.Src,                        \
                          R + Mv.Src + Mv.Width);                              \
      }                                                                        \
      size_t ScratchAt = 0;                                                    \
      for (uint32_t MI = E.MovesBegin; MI != E.MovesEnd; ++MI) {               \
        const PhiMove &Mv = F.Moves[MI];                                       \
        std::copy_n(St.Scratch.data() + ScratchAt, Mv.Width, R + Mv.Dst);      \
        ScratchAt += Mv.Width;                                                 \
      }                                                                        \
    }                                                                          \
    Block = E.TargetBlock;                                                     \
    goto EnterBlock;                                                           \
  } while (0)

#if defined(__GNUC__) || defined(__clang__)
#define SPV_THREADED_DISPATCH 1
#define SPV_OP(Name) L_##Name:
#define SPV_NEXT                                                               \
  do {                                                                         \
    Cur = PC++;                                                                \
    goto *JumpTable[static_cast<size_t>(Ops[Cur])];                            \
  } while (0)
  const void *JumpTable[NumBcOps] = {
      &&L_Add,    &&L_Sub,     &&L_Mul,    &&L_SDiv,  &&L_SMod, &&L_Neg,
      &&L_LAnd,   &&L_LOr,     &&L_LNot,   &&L_CmpEq, &&L_CmpNe, &&L_CmpLt,
      &&L_CmpLe,  &&L_CmpGt,   &&L_CmpGe,  &&L_Select, &&L_Copy, &&L_Load,
      &&L_Store,  &&L_AllocVar, &&L_Call,  &&L_RetVoid, &&L_RetVal, &&L_Kill,
      &&L_Fault,  &&L_Br,      &&L_BrCond};
#else
#define SPV_OP(Name) case BcOp::Name:
#define SPV_NEXT break
#endif

EnterBlock : {
  const BlockInfo &BI = F.Blocks[Block];
  St.Steps += BI.Cost;
  if (St.Steps > Options.StepLimit)
    return static_cast<int>(StepLimitFault);
  PC = BI.CodeBegin;
}
#ifdef SPV_THREADED_DISPATCH
  SPV_NEXT;
#else
  for (;;) {
    Cur = PC++;
    switch (Ops[Cur]) {
#endif

  SPV_OP(Add)
  R[OD[Cur]] = static_cast<int32_t>(static_cast<uint32_t>(R[OA[Cur]]) +
                                    static_cast<uint32_t>(R[OB[Cur]]));
  SPV_NEXT;

  SPV_OP(Sub)
  R[OD[Cur]] = static_cast<int32_t>(static_cast<uint32_t>(R[OA[Cur]]) -
                                    static_cast<uint32_t>(R[OB[Cur]]));
  SPV_NEXT;

  SPV_OP(Mul)
  R[OD[Cur]] = static_cast<int32_t>(static_cast<uint32_t>(R[OA[Cur]]) *
                                    static_cast<uint32_t>(R[OB[Cur]]));
  SPV_NEXT;

  SPV_OP(SDiv) {
    int32_t Lhs = R[OA[Cur]], Rhs = R[OB[Cur]];
    R[OD[Cur]] = (Rhs == 0 || (Lhs == INT32_MIN && Rhs == -1)) ? 0 : Lhs / Rhs;
  }
  SPV_NEXT;

  SPV_OP(SMod) {
    int32_t Lhs = R[OA[Cur]], Rhs = R[OB[Cur]];
    R[OD[Cur]] = (Rhs == 0 || (Lhs == INT32_MIN && Rhs == -1)) ? 0 : Lhs % Rhs;
  }
  SPV_NEXT;

  SPV_OP(Neg)
  R[OD[Cur]] =
      static_cast<int32_t>(0u - static_cast<uint32_t>(R[OA[Cur]]));
  SPV_NEXT;

  SPV_OP(LAnd)
  R[OD[Cur]] = (R[OA[Cur]] != 0 && R[OB[Cur]] != 0) ? 1 : 0;
  SPV_NEXT;

  SPV_OP(LOr)
  R[OD[Cur]] = (R[OA[Cur]] != 0 || R[OB[Cur]] != 0) ? 1 : 0;
  SPV_NEXT;

  SPV_OP(LNot)
  R[OD[Cur]] = R[OA[Cur]] != 0 ? 0 : 1;
  SPV_NEXT;

  SPV_OP(CmpEq)
  R[OD[Cur]] = R[OA[Cur]] == R[OB[Cur]] ? 1 : 0;
  SPV_NEXT;

  SPV_OP(CmpNe)
  R[OD[Cur]] = R[OA[Cur]] != R[OB[Cur]] ? 1 : 0;
  SPV_NEXT;

  SPV_OP(CmpLt)
  R[OD[Cur]] = R[OA[Cur]] < R[OB[Cur]] ? 1 : 0;
  SPV_NEXT;

  SPV_OP(CmpLe)
  R[OD[Cur]] = R[OA[Cur]] <= R[OB[Cur]] ? 1 : 0;
  SPV_NEXT;

  SPV_OP(CmpGt)
  R[OD[Cur]] = R[OA[Cur]] > R[OB[Cur]] ? 1 : 0;
  SPV_NEXT;

  SPV_OP(CmpGe)
  R[OD[Cur]] = R[OA[Cur]] >= R[OB[Cur]] ? 1 : 0;
  SPV_NEXT;

  SPV_OP(Select) {
    const int32_t *Src = R + (R[OA[Cur]] != 0 ? OB[Cur] : OC[Cur]);
    std::copy_n(Src, OE[Cur], R + OD[Cur]);
  }
  SPV_NEXT;

  SPV_OP(Copy)
  std::copy_n(R + OA[Cur], OE[Cur], R + OD[Cur]);
  SPV_NEXT;

  SPV_OP(Load)
  std::copy_n(St.Memory.data() +
                  static_cast<size_t>(static_cast<uint32_t>(R[OA[Cur]])),
              OE[Cur], R + OD[Cur]);
  SPV_NEXT;

  SPV_OP(Store)
  std::copy_n(R + OB[Cur], OE[Cur],
              St.Memory.data() +
                  static_cast<size_t>(static_cast<uint32_t>(R[OA[Cur]])));
  SPV_NEXT;

  SPV_OP(AllocVar) {
    uint32_t Cell = static_cast<uint32_t>(St.Memory.size());
    if (OA[Cur] != NoSlot)
      St.Memory.insert(St.Memory.end(), P.InitPool.begin() + OA[Cur],
                       P.InitPool.begin() + OA[Cur] + OE[Cur]);
    else
      St.Memory.resize(St.Memory.size() + OE[Cur], 0);
    R[OD[Cur]] = static_cast<int32_t>(Cell);
  }
  SPV_NEXT;

  SPV_OP(Call) {
    if (Depth + 1 > Options.MaxCallDepth)
      return static_cast<int>(CallDepthFault);
    const LoweredFunction &Callee = P.Functions[OA[Cur]];
    size_t CalleeBase = St.Regs.size();
    St.Regs.resize(CalleeBase + Callee.FrameWords);
    {
      int32_t *CalleeR = St.Regs.data() + CalleeBase;
      std::copy(Callee.FrameTemplate.begin(), Callee.FrameTemplate.end(),
                CalleeR);
      const int32_t *CallerR = St.Regs.data() + Base;
      const uint32_t *Args = F.Extra.data() + OB[Cur];
      for (uint32_t I = 0; I != Args[0]; ++I)
        std::copy_n(CallerR + Args[1 + I], Callee.ParamWidths[I],
                    CalleeR + Callee.ParamOffsets[I]);
    }
    int Status = execute(P, St, OA[Cur], CalleeBase, Depth + 1, Options);
    if (Status != StatusOk)
      return Status;
    if (OD[Cur] != NoSlot)
      std::copy_n(St.Regs.data() + CalleeBase, Callee.ReturnWidth,
                  St.Regs.data() + Base + OD[Cur]);
    St.Regs.resize(CalleeBase);
    R = St.Regs.data() + Base;
  }
  SPV_NEXT;

  SPV_OP(RetVoid)
  return StatusOk;

  SPV_OP(RetVal)
  std::copy_n(R + OA[Cur], OE[Cur], R);
  return StatusOk;

  SPV_OP(Kill)
  return StatusKilled;

  SPV_OP(Fault)
  return static_cast<int>(OA[Cur]);

  SPV_OP(Br)
  SPV_TAKE_EDGE(OA[Cur]);
  SPV_NEXT;

  SPV_OP(BrCond)
  SPV_TAKE_EDGE(R[OA[Cur]] != 0 ? OB[Cur] : OC[Cur]);
  SPV_NEXT;

#ifndef SPV_THREADED_DISPATCH
    }
  }
#endif

#undef SPV_TAKE_EDGE
#undef SPV_OP
#undef SPV_NEXT
#undef SPV_THREADED_DISPATCH
}

} // namespace

Executable::Executable(Module TheModule, ExecEngine TheEngine,
                       uint64_t TheArtifactId)
    : M(std::move(TheModule)), Engine(TheEngine), ArtifactId(TheArtifactId) {
  if (Engine == ExecEngine::Lowered)
    Prog = lowerModule(M);
}

std::shared_ptr<const Executable>
Executable::compile(Module M, ExecEngine Engine, uint64_t ArtifactId) {
  return std::shared_ptr<const Executable>(
      new Executable(std::move(M), Engine, ArtifactId));
}

ExecResult Executable::run(const ShaderInput &Input,
                           const InterpreterOptions &Options) const {
  if (!Prog.Ok)
    return interpret(M, Input, Options);
  // The tree interpreter stores a shape-mismatched uniform value verbatim
  // and lets it propagate; the flat memory image cannot represent that, so
  // such inputs run on the reference interpreter.
  for (const UniformSlot &U : Prog.Uniforms) {
    auto It = Input.Bindings.find(U.Binding);
    if (It != Input.Bindings.end() &&
        !valueMatchesShape(Prog, It->second, U.Shape))
      return interpret(M, Input, Options);
  }

  ExecState &St = TlsState;
  St.Steps = 0;
  St.Memory.assign(Prog.GlobalTemplate.begin(), Prog.GlobalTemplate.end());
  for (const UniformSlot &U : Prog.Uniforms) {
    auto It = Input.Bindings.find(U.Binding);
    if (It == Input.Bindings.end())
      continue;
    St.Scratch.clear();
    flattenValue(It->second, St.Scratch);
    std::copy(St.Scratch.begin(), St.Scratch.end(),
              St.Memory.begin() + U.MemBase);
  }
  const LoweredFunction &Entry = Prog.Functions[Prog.EntryFunction];
  St.Regs.assign(Entry.FrameTemplate.begin(), Entry.FrameTemplate.end());

  int Status = execute(Prog, St, Prog.EntryFunction, /*Base=*/0, /*Depth=*/0,
                       Options);

  ExecResult Result;
  if (Status == StatusKilled) {
    Result.ExecStatus = ExecResult::Status::Killed;
  } else if (Status >= 0) {
    Result.ExecStatus = ExecResult::Status::Fault;
    Result.FaultMessage = Prog.FaultMessages[static_cast<size_t>(Status)];
  } else {
    Result.ExecStatus = ExecResult::Status::Ok;
    for (const OutputSlot &O : Prog.Outputs) {
      const int32_t *Words = St.Memory.data() + O.MemBase;
      Result.Outputs[O.Location] = rebuildValue(Prog, O.Shape, Words);
    }
  }

  // Identical accounting to interpret() so the two engines are
  // counter-for-counter interchangeable.
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  if (Metrics.enabled()) {
    Metrics.add("exec.runs");
    Metrics.add("exec.steps", St.Steps);
    if (Result.ExecStatus == ExecResult::Status::Killed)
      Metrics.add("exec.killed");
    else if (Result.ExecStatus == ExecResult::Status::Fault)
      Metrics.add("exec.faults");
    Metrics.observe("exec.steps_per_run", static_cast<double>(St.Steps));
  }
  return Result;
}

size_t Executable::approxBytes() const {
  return sizeof(Executable) + M.instructionCount() * 48 + Prog.approxBytes();
}
