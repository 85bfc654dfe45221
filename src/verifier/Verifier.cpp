//===- verifier/Verifier.cpp ----------------------------------------------===//

#include "verifier/Verifier.h"

#include "cfg/ControlFlowGraph.h"

#include <cstdio>
#include <deque>
#include <optional>
#include <vector>

using namespace satb;

namespace {

/// Per-local verification type lattice. Unknown = never stored on this
/// path; Conflict = stored with different kinds on merging paths (usable
/// only as a store target, never loadable).
enum class LocalKind : uint8_t { Unknown, Int, Ref, Conflict };

LocalKind mergeLocal(LocalKind A, LocalKind B) {
  if (A == B)
    return A;
  return LocalKind::Conflict;
}

struct VState {
  std::vector<LocalKind> Locals;
  std::vector<JType> Stack;

  bool operator==(const VState &O) const {
    return Locals == O.Locals && Stack == O.Stack;
  }
};

class MethodVerifier {
public:
  MethodVerifier(const Program &P, const Method &M) : P(P), M(M) {}

  VerifyResult run();

private:
  bool fail(uint32_t InstrIdx, const std::string &Msg) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "at instruction %u: ", InstrIdx);
    Result.Error = M.Name + ": " + Buf + Msg;
    return false;
  }

  bool popKind(VState &S, JType Want, uint32_t I, const char *What) {
    if (S.Stack.empty())
      return fail(I, std::string("stack underflow popping ") + What);
    JType Got = S.Stack.back();
    S.Stack.pop_back();
    if (Got != Want)
      return fail(I, std::string("expected ") +
                         (Want == JType::Int ? "int" : "ref") + " for " +
                         What);
    return true;
  }

  void push(VState &S, JType T) {
    S.Stack.push_back(T);
    if (S.Stack.size() > Result.MaxStack)
      Result.MaxStack = static_cast<uint32_t>(S.Stack.size());
  }

  /// Interprets one instruction; \returns false (with Error set) on a
  /// verification failure.
  bool step(VState &S, uint32_t I);

  /// Merges \p From into the recorded in-state of block \p Succ; \returns
  /// false on stack-shape disagreement. Sets \p Changed.
  bool mergeInto(uint32_t Succ, const VState &From, uint32_t I,
                 bool &Changed);

  const Program &P;
  const Method &M;
  VerifyResult Result;
  std::vector<std::optional<VState>> BlockIn;
};

bool MethodVerifier::step(VState &S, uint32_t I) {
  const Instruction &Ins = M.Instructions[I];
  auto CheckLocal = [&](int32_t Idx) {
    return Idx >= 0 && static_cast<uint32_t>(Idx) < M.NumLocals;
  };
  switch (Ins.Op) {
  case Opcode::IConst:
    push(S, JType::Int);
    return true;
  case Opcode::AConstNull:
    push(S, JType::Ref);
    return true;
  case Opcode::ILoad:
  case Opcode::ALoad: {
    if (!CheckLocal(Ins.A))
      return fail(I, "local index out of range");
    LocalKind K = S.Locals[static_cast<uint32_t>(Ins.A)];
    LocalKind Want = Ins.Op == Opcode::ILoad ? LocalKind::Int : LocalKind::Ref;
    if (K != Want)
      return fail(I, K == LocalKind::Unknown
                         ? "load of uninitialized local"
                         : (K == LocalKind::Conflict
                                ? "load of type-conflicted local"
                                : "local kind mismatch"));
    push(S, Ins.Op == Opcode::ILoad ? JType::Int : JType::Ref);
    return true;
  }
  case Opcode::IStore:
  case Opcode::AStore: {
    if (!CheckLocal(Ins.A))
      return fail(I, "local index out of range");
    JType Want = Ins.Op == Opcode::IStore ? JType::Int : JType::Ref;
    if (!popKind(S, Want, I, "store"))
      return false;
    S.Locals[static_cast<uint32_t>(Ins.A)] =
        Want == JType::Int ? LocalKind::Int : LocalKind::Ref;
    return true;
  }
  case Opcode::IInc:
    if (!CheckLocal(Ins.A))
      return fail(I, "local index out of range");
    if (S.Locals[static_cast<uint32_t>(Ins.A)] != LocalKind::Int)
      return fail(I, "iinc of non-int local");
    return true;
  case Opcode::Dup: {
    if (S.Stack.empty())
      return fail(I, "stack underflow in dup");
    push(S, S.Stack.back());
    return true;
  }
  case Opcode::Pop:
    if (S.Stack.empty())
      return fail(I, "stack underflow in pop");
    S.Stack.pop_back();
    return true;
  case Opcode::Swap: {
    if (S.Stack.size() < 2)
      return fail(I, "stack underflow in swap");
    std::swap(S.Stack[S.Stack.size() - 1], S.Stack[S.Stack.size() - 2]);
    return true;
  }
  case Opcode::IAdd:
  case Opcode::ISub:
  case Opcode::IMul:
  case Opcode::IDiv:
  case Opcode::IRem:
    if (!popKind(S, JType::Int, I, "arith rhs") ||
        !popKind(S, JType::Int, I, "arith lhs"))
      return false;
    push(S, JType::Int);
    return true;
  case Opcode::INeg:
    if (!popKind(S, JType::Int, I, "ineg"))
      return false;
    push(S, JType::Int);
    return true;
  case Opcode::GetField:
  case Opcode::PutField: {
    if (Ins.A < 0 || static_cast<uint32_t>(Ins.A) >= P.numFields())
      return fail(I, "field id out of range");
    const FieldDecl &F = P.fieldDecl(static_cast<FieldId>(Ins.A));
    if (Ins.Op == Opcode::PutField) {
      if (!popKind(S, F.Type, I, "putfield value"))
        return false;
      if (!popKind(S, JType::Ref, I, "putfield object"))
        return false;
      return true;
    }
    if (!popKind(S, JType::Ref, I, "getfield object"))
      return false;
    push(S, F.Type);
    return true;
  }
  case Opcode::GetStatic:
  case Opcode::PutStatic: {
    if (Ins.A < 0 || static_cast<uint32_t>(Ins.A) >= P.numStatics())
      return fail(I, "static field id out of range");
    const StaticFieldDecl &F = P.staticDecl(static_cast<StaticFieldId>(Ins.A));
    if (Ins.Op == Opcode::PutStatic)
      return popKind(S, F.Type, I, "putstatic value");
    push(S, F.Type);
    return true;
  }
  case Opcode::NewInstance:
    if (Ins.A < 0 || static_cast<uint32_t>(Ins.A) >= P.numClasses())
      return fail(I, "class id out of range");
    push(S, JType::Ref);
    return true;
  case Opcode::NewRefArray:
  case Opcode::NewIntArray:
    if (!popKind(S, JType::Int, I, "array length"))
      return false;
    push(S, JType::Ref);
    return true;
  case Opcode::AALoad:
  case Opcode::IALoad:
    if (!popKind(S, JType::Int, I, "array index") ||
        !popKind(S, JType::Ref, I, "array ref"))
      return false;
    push(S, Ins.Op == Opcode::AALoad ? JType::Ref : JType::Int);
    return true;
  case Opcode::AAStore:
    if (!popKind(S, JType::Ref, I, "aastore value") ||
        !popKind(S, JType::Int, I, "array index") ||
        !popKind(S, JType::Ref, I, "array ref"))
      return false;
    return true;
  case Opcode::IAStore:
    if (!popKind(S, JType::Int, I, "iastore value") ||
        !popKind(S, JType::Int, I, "array index") ||
        !popKind(S, JType::Ref, I, "array ref"))
      return false;
    return true;
  case Opcode::ArrayFill:
    if (!popKind(S, JType::Int, I, "fill count") ||
        !popKind(S, JType::Int, I, "fill start") ||
        !popKind(S, JType::Ref, I, "fill value") ||
        !popKind(S, JType::Ref, I, "array ref"))
      return false;
    return true;
  case Opcode::ArrayCopy:
    if (!popKind(S, JType::Int, I, "copy count") ||
        !popKind(S, JType::Int, I, "copy dst pos") ||
        !popKind(S, JType::Ref, I, "copy dst array") ||
        !popKind(S, JType::Int, I, "copy src pos") ||
        !popKind(S, JType::Ref, I, "copy src array"))
      return false;
    return true;
  case Opcode::ArrayLength:
    if (!popKind(S, JType::Ref, I, "arraylength"))
      return false;
    push(S, JType::Int);
    return true;
  case Opcode::Invoke: {
    if (Ins.A < 0 || static_cast<uint32_t>(Ins.A) >= P.numMethods())
      return fail(I, "method id out of range");
    const Method &Callee = P.method(static_cast<MethodId>(Ins.A));
    // Args are pushed left to right, so arg N-1 is on top.
    for (uint32_t AI = Callee.numArgs(); AI-- > 0;)
      if (!popKind(S, Callee.ArgTypes[AI], I, "invoke argument"))
        return false;
    if (Callee.ReturnType)
      push(S, *Callee.ReturnType);
    return true;
  }
  case Opcode::Goto:
    return true;
  case Opcode::IfEq:
  case Opcode::IfNe:
  case Opcode::IfLt:
  case Opcode::IfGe:
  case Opcode::IfGt:
  case Opcode::IfLe:
    return popKind(S, JType::Int, I, "branch condition");
  case Opcode::IfICmpEq:
  case Opcode::IfICmpNe:
  case Opcode::IfICmpLt:
  case Opcode::IfICmpGe:
  case Opcode::IfICmpGt:
  case Opcode::IfICmpLe:
    return popKind(S, JType::Int, I, "compare rhs") &&
           popKind(S, JType::Int, I, "compare lhs");
  case Opcode::IfNull:
  case Opcode::IfNonNull:
    return popKind(S, JType::Ref, I, "null check");
  case Opcode::IfACmpEq:
  case Opcode::IfACmpNe:
    return popKind(S, JType::Ref, I, "ref compare rhs") &&
           popKind(S, JType::Ref, I, "ref compare lhs");
  case Opcode::RearrangeEnter:
  case Opcode::RearrangeEnterDyn:
  case Opcode::RearrangeExit:
    // Synthetic Section 4.3 protocol markers: no stack effect; the named
    // local must hold a reference.
    if (!CheckLocal(Ins.A))
      return fail(I, "local index out of range");
    if (S.Locals[static_cast<uint32_t>(Ins.A)] != LocalKind::Ref)
      return fail(I, "rearrange protocol local is not a reference");
    if (Ins.Op == Opcode::RearrangeEnter && Ins.B < 0)
      return fail(I, "negative rearrange drop index");
    if (Ins.Op == Opcode::RearrangeEnterDyn) {
      if (!CheckLocal(Ins.B))
        return fail(I, "rearrange index local out of range");
      if (S.Locals[static_cast<uint32_t>(Ins.B)] != LocalKind::Int)
        return fail(I, "rearrange index local is not an int");
    }
    return true;
  case Opcode::Ret:
    if (M.ReturnType)
      return fail(I, "void return from non-void method");
    if (!S.Stack.empty())
      return fail(I, "return with non-empty stack");
    return true;
  case Opcode::IReturn:
  case Opcode::AReturn: {
    JType Want = Ins.Op == Opcode::IReturn ? JType::Int : JType::Ref;
    if (!M.ReturnType || *M.ReturnType != Want)
      return fail(I, "return type mismatch");
    if (!popKind(S, Want, I, "return value"))
      return false;
    if (!S.Stack.empty())
      return fail(I, "return with non-empty stack");
    return true;
  }
  }
  return fail(I, "unknown opcode");
}

bool MethodVerifier::mergeInto(uint32_t Succ, const VState &From, uint32_t I,
                               bool &Changed) {
  std::optional<VState> &In = BlockIn[Succ];
  if (!In) {
    In = From;
    Changed = true;
    return true;
  }
  if (In->Stack != From.Stack)
    return fail(I, "operand stacks disagree at join point");
  Changed = false;
  for (size_t L = 0, E = In->Locals.size(); L != E; ++L) {
    LocalKind Merged = mergeLocal(In->Locals[L], From.Locals[L]);
    if (Merged != In->Locals[L]) {
      In->Locals[L] = Merged;
      Changed = true;
    }
  }
  return true;
}

VerifyResult MethodVerifier::run() {
  if (M.Instructions.empty()) {
    Result.Error = M.Name + ": empty method body";
    return Result;
  }
  if (!isTerminator(M.Instructions.back().Op)) {
    Result.Error = M.Name + ": method does not end with a terminator";
    return Result;
  }
  if (M.NumLocals < M.numArgs()) {
    Result.Error = M.Name + ": fewer locals than arguments";
    return Result;
  }
  for (uint32_t I = 0, E = static_cast<uint32_t>(M.Instructions.size());
       I != E; ++I) {
    const Instruction &Ins = M.Instructions[I];
    if (isBranch(Ins.Op) &&
        (Ins.A < 0 || static_cast<uint32_t>(Ins.A) >= E)) {
      fail(I, "branch target out of range");
      return Result;
    }
  }

  ControlFlowGraph CFG(M);
  BlockIn.assign(CFG.numBlocks(), std::nullopt);

  VState Entry;
  Entry.Locals.assign(M.NumLocals, LocalKind::Unknown);
  for (uint32_t A = 0, E = M.numArgs(); A != E; ++A)
    Entry.Locals[A] =
        M.ArgTypes[A] == JType::Int ? LocalKind::Int : LocalKind::Ref;
  BlockIn[0] = std::move(Entry);

  std::deque<uint32_t> Worklist{0};
  std::vector<bool> InList(CFG.numBlocks(), false);
  InList[0] = true;
  while (!Worklist.empty()) {
    uint32_t BI = Worklist.front();
    Worklist.pop_front();
    InList[BI] = false;
    VState S = *BlockIn[BI];
    const BasicBlock &B = CFG.block(BI);
    for (uint32_t I = B.Begin; I != B.End; ++I)
      if (!step(S, I))
        return Result;
    for (uint32_t Succ : B.succs()) {
      bool Changed = false;
      if (!mergeInto(Succ, S, B.End - 1, Changed))
        return Result;
      if (Changed && !InList[Succ]) {
        InList[Succ] = true;
        Worklist.push_back(Succ);
      }
    }
  }

  Result.Ok = true;
  return Result;
}

} // namespace

VerifyResult satb::verifyMethod(const Program &P, const Method &M) {
  return MethodVerifier(P, M).run();
}

VerifyResult satb::verifyProgram(const Program &P) {
  for (uint32_t I = 0, E = P.numMethods(); I != E; ++I) {
    VerifyResult R = verifyMethod(P, P.method(I));
    if (!R.Ok)
      return R;
  }
  VerifyResult Ok;
  Ok.Ok = true;
  return Ok;
}
