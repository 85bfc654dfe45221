//===- jit/FastTranslate.cpp - CompiledMethod -> FastInst stream ----------===//

#include "jit/FastCode.h"

#include "heap/Heap.h"

#include <algorithm>
#include <cstdlib>

using namespace satb;

const char *satb::fastOpName(FastOp Op) {
  switch (Op) {
#define X(name)                                                                \
  case FastOp::name:                                                           \
    return #name;
    SATB_FAST_OPS(X)
#undef X
  }
  return "<unknown>";
}

bool TranslateOptions::fusionDefault() {
  static const bool Enabled = std::getenv("SATB_NO_FUSE") == nullptr;
  return Enabled;
}

std::optional<FastOp> satb::fusedOp(FastOp First, FastOp Second) {
  // Offset helpers for the op families whose members are contiguous in
  // the enum (the X-macro fixes the layout; the static_asserts pin it).
  auto Off = [](FastOp Op, FastOp Base) {
    return static_cast<uint16_t>(Op) - static_cast<uint16_t>(Base);
  };
  auto At = [](FastOp Base, uint16_t Delta) {
    return static_cast<FastOp>(static_cast<uint16_t>(Base) + Delta);
  };
  static_assert(static_cast<uint16_t>(FastOp::IfLe) -
                        static_cast<uint16_t>(FastOp::IfEq) == 5 &&
                    static_cast<uint16_t>(FastOp::IfICmpLe) -
                        static_cast<uint16_t>(FastOp::IfICmpEq) == 5 &&
                    static_cast<uint16_t>(FastOp::LoadIfLe) -
                        static_cast<uint16_t>(FastOp::LoadIfEq) == 5 &&
                    static_cast<uint16_t>(FastOp::LoadIfICmpLe) -
                        static_cast<uint16_t>(FastOp::LoadIfICmpEq) == 5 &&
                    static_cast<uint16_t>(FastOp::IConstIfICmpLe) -
                        static_cast<uint16_t>(FastOp::IConstIfICmpEq) == 5,
                "comparison families must stay contiguous");

  switch (First) {
  case FastOp::Load:
    switch (Second) {
    case FastOp::GetFieldRef:
      return FastOp::LoadGetFieldRef;
    case FastOp::GetFieldInt:
      return FastOp::LoadGetFieldInt;
    case FastOp::PutFieldInt:
      return FastOp::LoadPutFieldInt;
    case FastOp::PutFieldRef_Elided:
      return FastOp::LoadPutFieldRef_Elided;
    case FastOp::PutFieldRef_NoBarrier:
      return FastOp::LoadPutFieldRef_NoBarrier;
    case FastOp::PutFieldRef_Satb:
      return FastOp::LoadPutFieldRef_Satb;
    case FastOp::PutFieldRef_AlwaysLog:
      return FastOp::LoadPutFieldRef_AlwaysLog;
    case FastOp::PutFieldRef_Card:
      return FastOp::LoadPutFieldRef_Card;
    case FastOp::AALoad:
      return FastOp::LoadAALoad;
    case FastOp::IALoad:
      return FastOp::LoadIALoad;
    case FastOp::IAStore:
      return FastOp::LoadIAStore;
    case FastOp::AAStore_Elided:
      return FastOp::LoadAAStore_Elided;
    case FastOp::AAStore_NoBarrier:
      return FastOp::LoadAAStore_NoBarrier;
    case FastOp::AAStore_Satb:
      return FastOp::LoadAAStore_Satb;
    case FastOp::AAStore_AlwaysLog:
      return FastOp::LoadAAStore_AlwaysLog;
    case FastOp::AAStore_Card:
      return FastOp::LoadAAStore_Card;
    case FastOp::PutFieldRef_Gen:
      return FastOp::LoadPutFieldRef_Gen;
    case FastOp::PutFieldRef_GenPreNull:
      return FastOp::LoadPutFieldRef_GenPreNull;
    case FastOp::PutFieldRef_GenYoung:
      return FastOp::LoadPutFieldRef_GenYoung;
    case FastOp::PutFieldRef_GenElided:
      return FastOp::LoadPutFieldRef_GenElided;
    case FastOp::AAStore_Gen:
      return FastOp::LoadAAStore_Gen;
    case FastOp::AAStore_GenPreNull:
      return FastOp::LoadAAStore_GenPreNull;
    case FastOp::AAStore_GenYoung:
      return FastOp::LoadAAStore_GenYoung;
    case FastOp::AAStore_GenElided:
      return FastOp::LoadAAStore_GenElided;
    case FastOp::PutFieldRef_Spec:
      return FastOp::LoadPutFieldRef_Spec;
    case FastOp::AAStore_Spec:
      return FastOp::LoadAAStore_Spec;
      // AAStore_Rearr_* stay unfused: the rearrangement bracket check is
      // cold and its active-set bookkeeping is easiest audited unfused.
    case FastOp::Store:
      return FastOp::LoadStore;
    case FastOp::Load:
      return FastOp::LoadLoad;
    case FastOp::IConst:
      return FastOp::LoadIConst;
    case FastOp::IAdd:
      return FastOp::LoadIAdd;
    case FastOp::ISub:
      return FastOp::LoadISub;
    case FastOp::IMul:
      return FastOp::LoadIMul;
    case FastOp::IfNull:
      return FastOp::LoadIfNull;
    case FastOp::IfNonNull:
      return FastOp::LoadIfNonNull;
    default:
      if (Second >= FastOp::IfEq && Second <= FastOp::IfLe)
        return At(FastOp::LoadIfEq, Off(Second, FastOp::IfEq));
      if (Second >= FastOp::IfICmpEq && Second <= FastOp::IfICmpLe)
        return At(FastOp::LoadIfICmpEq, Off(Second, FastOp::IfICmpEq));
      return std::nullopt;
    }
  case FastOp::IConst:
    switch (Second) {
    case FastOp::IConst:
      return FastOp::IConstIConst;
    case FastOp::IAdd:
      return FastOp::IConstIAdd;
    case FastOp::ISub:
      return FastOp::IConstISub;
    case FastOp::IMul:
      return FastOp::IConstIMul;
    case FastOp::IDiv:
      return FastOp::IConstIDiv;
    case FastOp::IRem:
      return FastOp::IConstIRem;
    case FastOp::AALoad:
      return FastOp::IConstAALoad;
    case FastOp::IALoad:
      return FastOp::IConstIALoad;
    default:
      if (Second >= FastOp::IfICmpEq && Second <= FastOp::IfICmpLe)
        return At(FastOp::IConstIfICmpEq, Off(Second, FastOp::IfICmpEq));
      return std::nullopt;
    }
  case FastOp::IInc:
    if (Second == FastOp::Goto)
      return FastOp::IIncGoto;
    return std::nullopt;
  case FastOp::Store:
    if (Second == FastOp::Load)
      return FastOp::StoreLoad;
    if (Second == FastOp::Store)
      return FastOp::StoreStore;
    return std::nullopt;
  case FastOp::Pop:
    if (Second == FastOp::IConst)
      return FastOp::PopIConst;
    return std::nullopt;
  case FastOp::IRem:
    if (Second == FastOp::Store)
      return FastOp::IRemStore;
    return std::nullopt;
  case FastOp::IMul:
    if (Second == FastOp::Pop)
      return FastOp::IMulPop;
    if (Second == FastOp::IConst)
      return FastOp::IMulIConst;
    return std::nullopt;
  case FastOp::IAdd:
    if (Second == FastOp::IConst)
      return FastOp::IAddIConst;
    return std::nullopt;
  default:
    return std::nullopt;
  }
}

namespace {

/// Which specialized body a reference-store site gets. Mirrors the
/// decision order of Interpreter::refStoreBarrier, evaluated once here
/// instead of per execution.
enum class StoreVariant {
  Elided,
  NoBarrier,
  Satb,
  AlwaysLog,
  Card,
  RearrSatb,
  RearrAlwaysLog,
  // BarrierMode::Generational: the SATB marking component and the
  // old-to-young remembered-set component are independently removable,
  // giving a 2x2 matrix of specialized bodies.
  Gen,          ///< both components kept
  GenPreNull,   ///< Section 3 pre-null proof removed the marking log
  GenYoung,     ///< young-target proof removed the remset barrier
  GenElided     ///< both proofs held: zero barrier instructions
};

StoreVariant storeVariant(const CompiledProgram &CP, const CompiledMethod &CM,
                          uint32_t PC,
                          TranslationTier Tier = TranslationTier::Static) {
  const BarrierDecision &D = CM.Analysis.Decisions[PC];
  assert(D.IsBarrierSite && "specializing a non-store site");
  // The Baseline tier is the profiling tier: it keeps every barrier the
  // mode prescribes, ignoring the static elision proof (but not the
  // rearrangement protocol, which is a logging *protocol*, not an
  // elision — dropping it would change what gets logged). A conservative
  // barrier at a proven-pre-null site logs nothing, so Baseline is
  // observably identical to Static everywhere but BarrierCost and the
  // Elided/RemSetElided bookkeeping.
  bool ApplyElision =
      CP.Options.ApplyElision && Tier != TranslationTier::Baseline;
  if (CP.Options.Barrier == BarrierMode::Generational) {
    // The rearrangement protocol is excluded from Generational (as from
    // CardMarking): RearrangeStores is never consulted here.
    bool MarkElided = D.Elide && ApplyElision;
    bool RemElided = D.TargetYoung && ApplyElision;
    if (MarkElided)
      return RemElided ? StoreVariant::GenElided : StoreVariant::GenPreNull;
    return RemElided ? StoreVariant::GenYoung : StoreVariant::Gen;
  }
  if (D.Elide && ApplyElision)
    return StoreVariant::Elided;
  bool Kept = Tier == TranslationTier::Baseline
                  ? CP.Options.Barrier != BarrierMode::None
                  : (PC < CM.BarrierKept.size() && CM.BarrierKept[PC]);
  if (!Kept)
    return StoreVariant::NoBarrier; // BarrierMode::None lands here too
  bool Rearr = PC < CM.RearrangeStores.size() && CM.RearrangeStores[PC] &&
               CP.Options.Barrier != BarrierMode::CardMarking;
  switch (CP.Options.Barrier) {
  case BarrierMode::Satb:
    return Rearr ? StoreVariant::RearrSatb : StoreVariant::Satb;
  case BarrierMode::SatbAlwaysLog:
    return Rearr ? StoreVariant::RearrAlwaysLog : StoreVariant::AlwaysLog;
  case BarrierMode::CardMarking:
    return StoreVariant::Card;
  case BarrierMode::Generational: // handled above
  case BarrierMode::None:
    break;
  }
  assert(false && "kept barrier under BarrierMode::None");
  return StoreVariant::NoBarrier;
}

FastOp selectPutField(StoreVariant V) {
  switch (V) {
  case StoreVariant::Elided:
    return FastOp::PutFieldRef_Elided;
  case StoreVariant::NoBarrier:
    return FastOp::PutFieldRef_NoBarrier;
  case StoreVariant::Satb:
    return FastOp::PutFieldRef_Satb;
  case StoreVariant::AlwaysLog:
    return FastOp::PutFieldRef_AlwaysLog;
  case StoreVariant::Card:
    return FastOp::PutFieldRef_Card;
  case StoreVariant::Gen:
    return FastOp::PutFieldRef_Gen;
  case StoreVariant::GenPreNull:
    return FastOp::PutFieldRef_GenPreNull;
  case StoreVariant::GenYoung:
    return FastOp::PutFieldRef_GenYoung;
  case StoreVariant::GenElided:
    return FastOp::PutFieldRef_GenElided;
  case StoreVariant::RearrSatb:
  case StoreVariant::RearrAlwaysLog:
    break;
  }
  assert(false && "rearrangement protocol marks only aastores");
  return FastOp::PutFieldRef_NoBarrier;
}

FastOp selectPutStatic(StoreVariant V) {
  switch (V) {
  case StoreVariant::Elided:
    return FastOp::PutStaticRef_Elided;
  case StoreVariant::NoBarrier:
    return FastOp::PutStaticRef_NoBarrier;
  case StoreVariant::Satb:
    return FastOp::PutStaticRef_Satb;
  case StoreVariant::AlwaysLog:
    return FastOp::PutStaticRef_AlwaysLog;
  case StoreVariant::Card:
    return FastOp::PutStaticRef_Card;
  case StoreVariant::Gen:
    return FastOp::PutStaticRef_Gen;
  case StoreVariant::GenPreNull:
  case StoreVariant::GenElided:
    // Statics are roots: no remembered-set component exists, so a
    // marking-elided static store is fully elided.
    return FastOp::PutStaticRef_Elided;
  case StoreVariant::GenYoung: // the analysis never proves a static young
  case StoreVariant::RearrSatb:
  case StoreVariant::RearrAlwaysLog:
    break;
  }
  assert(false && "rearrangement protocol marks only aastores");
  return FastOp::PutStaticRef_NoBarrier;
}

FastOp selectAAStore(StoreVariant V) {
  switch (V) {
  case StoreVariant::Elided:
    return FastOp::AAStore_Elided;
  case StoreVariant::NoBarrier:
    return FastOp::AAStore_NoBarrier;
  case StoreVariant::Satb:
    return FastOp::AAStore_Satb;
  case StoreVariant::AlwaysLog:
    return FastOp::AAStore_AlwaysLog;
  case StoreVariant::Card:
    return FastOp::AAStore_Card;
  case StoreVariant::Gen:
    return FastOp::AAStore_Gen;
  case StoreVariant::GenPreNull:
    return FastOp::AAStore_GenPreNull;
  case StoreVariant::GenYoung:
    return FastOp::AAStore_GenYoung;
  case StoreVariant::GenElided:
    return FastOp::AAStore_GenElided;
  case StoreVariant::RearrSatb:
    return FastOp::AAStore_Rearr_Satb;
  case StoreVariant::RearrAlwaysLog:
    return FastOp::AAStore_Rearr_AlwaysLog;
  }
  assert(false && "unhandled store variant");
  return FastOp::AAStore_NoBarrier;
}

/// Bulk-store selection. The variants map onto the range-barrier naming:
/// Satb/AlwaysLog/Card/Gen are the _RangeBarrier family (one prologue for
/// the whole range), GenYoung is _RangeYoung, Elided/GenElided are
/// _RangeElided. Bulk sites never carry the rearrangement protocol.
FastOp selectBulk(StoreVariant V, bool IsFill) {
  switch (V) {
  case StoreVariant::Elided:
    return IsFill ? FastOp::ArrayFill_Elided : FastOp::ArrayCopy_Elided;
  case StoreVariant::NoBarrier:
    return IsFill ? FastOp::ArrayFill_NoBarrier
                  : FastOp::ArrayCopy_NoBarrier;
  case StoreVariant::Satb:
    return IsFill ? FastOp::ArrayFill_Satb : FastOp::ArrayCopy_Satb;
  case StoreVariant::AlwaysLog:
    return IsFill ? FastOp::ArrayFill_AlwaysLog
                  : FastOp::ArrayCopy_AlwaysLog;
  case StoreVariant::Card:
    return IsFill ? FastOp::ArrayFill_Card : FastOp::ArrayCopy_Card;
  case StoreVariant::Gen:
    return IsFill ? FastOp::ArrayFill_Gen : FastOp::ArrayCopy_Gen;
  case StoreVariant::GenPreNull:
    return IsFill ? FastOp::ArrayFill_GenPreNull
                  : FastOp::ArrayCopy_GenPreNull;
  case StoreVariant::GenYoung:
    return IsFill ? FastOp::ArrayFill_GenYoung : FastOp::ArrayCopy_GenYoung;
  case StoreVariant::GenElided:
    return IsFill ? FastOp::ArrayFill_GenElided
                  : FastOp::ArrayCopy_GenElided;
  case StoreVariant::RearrSatb:
  case StoreVariant::RearrAlwaysLog:
    break;
  }
  assert(false && "rearrangement protocol never marks bulk stores");
  return IsFill ? FastOp::ArrayFill_NoBarrier : FastOp::ArrayCopy_NoBarrier;
}

/// Per-component view of the *static* tier's verdict at a barrier site,
/// shared by the speculative lowering below and the promotion policy's
/// candidate scan (siteComponentsKept). Statics have no remembered-set
/// component (they are scanned as roots); rearranged and card-marking
/// sites are never speculated — rearrangement is a logging protocol the
/// pre-null guard says nothing about, and the card barrier keys on the
/// *new* value, which Pre == null cannot discharge.
struct SiteComponents {
  bool MarkKept = false;
  bool RemKept = false;
  bool MarkStaticElided = false;
  bool RemStaticElided = false;
  bool Speculable = false;
};

SiteComponents siteComponents(const CompiledProgram &CP,
                              const CompiledMethod &CM, uint32_t PC,
                              bool IsStaticStore) {
  StoreVariant V = storeVariant(CP, CM, PC, TranslationTier::Static);
  SiteComponents R;
  R.MarkKept = V == StoreVariant::Satb || V == StoreVariant::AlwaysLog ||
               V == StoreVariant::Gen || V == StoreVariant::GenYoung;
  R.MarkStaticElided = V == StoreVariant::Elided ||
                       V == StoreVariant::GenPreNull ||
                       V == StoreVariant::GenElided;
  if (!IsStaticStore) {
    R.RemKept = V == StoreVariant::Gen || V == StoreVariant::GenPreNull;
    R.RemStaticElided =
        V == StoreVariant::GenYoung || V == StoreVariant::GenElided;
  }
  R.Speculable = V != StoreVariant::Card && V != StoreVariant::NoBarrier &&
                 V != StoreVariant::RearrSatb &&
                 V != StoreVariant::RearrAlwaysLog;
  return R;
}

/// The FastInst::C flag word for a speculative store site, or 0 when no
/// requested speculation applies (the caller falls back to the static
/// selection). A speculation request is honored only for a component the
/// static tier actually keeps — speculating on a statically-removed
/// component would be a strict regression.
uint16_t specSiteFlags(const CompiledProgram &CP, const CompiledMethod &CM,
                       uint32_t PC, const SpeculativeFacts &Spec,
                       bool IsStaticStore) {
  SiteComponents SC = siteComponents(CP, CM, PC, IsStaticStore);
  if (!SC.Speculable)
    return 0;
  bool SpecNull =
      PC < Spec.NullSpec.size() && Spec.NullSpec[PC] && SC.MarkKept;
  bool SpecYoung =
      PC < Spec.YoungSpec.size() && Spec.YoungSpec[PC] && SC.RemKept;
  if (!SpecNull && !SpecYoung)
    return 0;
  uint16_t F = 0;
  if (SpecNull)
    F |= kSpecMarkNull;
  else if (SC.MarkStaticElided)
    F |= kSpecMarkStaticElided;
  else if (SC.MarkKept)
    F |= kSpecMarkKept;
  if (SpecYoung)
    F |= kSpecRemYoung;
  else if (SC.RemStaticElided)
    F |= kSpecRemStaticElided;
  else if (SC.RemKept)
    F |= kSpecRemKept;
  if (CP.Options.Barrier == BarrierMode::SatbAlwaysLog)
    F |= kSpecAlwaysLog;
  return F;
}

/// Net operand-stack effect of one instruction (callee effects folded in
/// for Invoke).
int stackDelta(const CompiledProgram &CP, const Instruction &Ins) {
  switch (Ins.Op) {
  case Opcode::IConst:
  case Opcode::AConstNull:
  case Opcode::ILoad:
  case Opcode::ALoad:
  case Opcode::GetStatic:
  case Opcode::NewInstance:
  case Opcode::Dup:
    return 1;
  case Opcode::IInc:
  case Opcode::Swap:
  case Opcode::INeg:
  case Opcode::GetField:
  case Opcode::NewRefArray:
  case Opcode::NewIntArray:
  case Opcode::ArrayLength:
  case Opcode::Goto:
  case Opcode::Ret:
  case Opcode::RearrangeEnter:
  case Opcode::RearrangeEnterDyn:
  case Opcode::RearrangeExit:
    return 0;
  case Opcode::IStore:
  case Opcode::AStore:
  case Opcode::Pop:
  case Opcode::IAdd:
  case Opcode::ISub:
  case Opcode::IMul:
  case Opcode::IDiv:
  case Opcode::IRem:
  case Opcode::PutStatic:
  case Opcode::AALoad:
  case Opcode::IALoad:
  case Opcode::IfEq:
  case Opcode::IfNe:
  case Opcode::IfLt:
  case Opcode::IfGe:
  case Opcode::IfGt:
  case Opcode::IfLe:
  case Opcode::IfNull:
  case Opcode::IfNonNull:
  case Opcode::IReturn:
  case Opcode::AReturn:
    return -1;
  case Opcode::PutField:
  case Opcode::IfICmpEq:
  case Opcode::IfICmpNe:
  case Opcode::IfICmpLt:
  case Opcode::IfICmpGe:
  case Opcode::IfICmpGt:
  case Opcode::IfICmpLe:
  case Opcode::IfACmpEq:
  case Opcode::IfACmpNe:
    return -2;
  case Opcode::AAStore:
  case Opcode::IAStore:
    return -3;
  case Opcode::ArrayFill:
    return -4;
  case Opcode::ArrayCopy:
    return -5;
  case Opcode::Invoke: {
    const Method &Callee = CP.method(static_cast<MethodId>(Ins.A)).Body;
    return -static_cast<int>(Callee.numArgs()) +
           (Callee.ReturnType.has_value() ? 1 : 0);
  }
  }
  assert(false && "unknown opcode");
  return 0;
}

/// Branch ops in the emitted stream (displacement in A). Fused branch
/// variants are deliberately excluded: their own A slot holds the first
/// half's operand, the displacement lives in the retained second slot.
bool isFastBranch(FastOp Op) {
  return Op >= FastOp::Goto && Op <= FastOp::IfACmpNe;
}

/// The superinstruction peephole. Rewrites the Op of the first
/// instruction of each selected adjacent pair (greedy left-to-right;
/// operands and the second slot stay untouched, so the fused stream
/// differs from the unfused one only in Op fields). A pair is fused only
/// when the second slot is not a branch target — leaders are recomputed
/// here from the emitted displacements, which also accounts for inserted
/// Safepoint polls (a poll between two instructions breaks adjacency by
/// construction, and Safepoint itself is in no fusion pair).
void fuseMethod(FastMethod &FM) {
  std::vector<FastInst> &Code = FM.Code;
  if (Code.size() < 2)
    return;
  std::vector<bool> Leader(Code.size(), false);
  for (uint32_t I = 0; I != Code.size(); ++I)
    if (isFastBranch(static_cast<FastOp>(Code[I].Op)))
      Leader[I + Code[I].A] = true;
  for (uint32_t I = 0; I + 1 < Code.size();) {
    if (!Leader[I + 1]) {
      if (std::optional<FastOp> F =
              fusedOp(static_cast<FastOp>(Code[I].Op),
                      static_cast<FastOp>(Code[I + 1].Op))) {
        Code[I].Op = static_cast<uint16_t>(*F);
        I += 2;
        continue;
      }
    }
    ++I;
  }
#ifndef NDEBUG
  // The branch-target hazard class, asserted away wholesale: no branch
  // in the final stream may land on the second slot of a fused pair
  // (entering mid-pair would skip the fused execution's first half).
  // Second slots keep their original branch ops, so scanning every
  // isFastBranch slot covers fused-pair branches too.
  for (uint32_t I = 0; I != Code.size(); ++I) {
    if (!isFastBranch(static_cast<FastOp>(Code[I].Op)))
      continue;
    uint32_t T = I + Code[I].A;
    assert(T < Code.size() && "branch displacement out of range");
    assert((T == 0 || !isFusedOp(static_cast<FastOp>(Code[T - 1].Op))) &&
           "fused instruction spans a jump target");
  }
#endif
}

/// Worst-case operand stack depth of the verified body: forward dataflow
/// of entry depths (verification guarantees path-independence).
uint32_t maxStackDepth(const CompiledProgram &CP, const Method &Body) {
  const std::vector<Instruction> &Code = Body.Instructions;
  if (Code.empty())
    return 0;
  std::vector<int> Depth(Code.size(), -1);
  std::vector<uint32_t> Work;
  Depth[0] = 0;
  Work.push_back(0);
  int Max = 0;
  while (!Work.empty()) {
    uint32_t I = Work.back();
    Work.pop_back();
    int In = Depth[I];
    int Out = In + stackDelta(CP, Code[I]);
    Max = std::max({Max, In, Out});
    auto Flow = [&](uint32_t Succ) {
      assert(Succ < Code.size() && "branch target out of range");
      if (Depth[Succ] == -1) {
        Depth[Succ] = Out;
        Work.push_back(Succ);
      } else {
        assert(Depth[Succ] == Out && "inconsistent stack depths");
      }
    };
    if (isBranch(Code[I].Op))
      Flow(static_cast<uint32_t>(Code[I].A));
    if (!isTerminator(Code[I].Op))
      Flow(I + 1);
  }
  return static_cast<uint32_t>(Max);
}

/// One method's translation — the loop body translateProgram always had,
/// extracted so the MethodVersionTable can re-translate a single hot
/// method at a different tier. Every tier shares the Safepoint-poll
/// placement below, so all of a method's versions have identical stream
/// lengths, branch displacements, and Site numbering.
FastMethod translateMethodImpl(const Program &P, const CompiledProgram &CP,
                               MethodId M, const TranslateOptions &Opts,
                               const std::vector<FieldSlot> &Layout,
                               const std::vector<uint32_t> &Offsets) {
  const CompiledMethod &CM = CP.Methods[M];
  const Method &Body = CM.Body;
  FastMethod FM;
  FM.NumLocals = Body.NumLocals;
  FM.NumArgs = Body.numArgs();
  FM.FrameSlots = Body.NumLocals + maxStackDepth(CP, Body);

  // Safepoint placement: a poll before every loop header (gcPoints, the
  // set where the analysis kills young facts) and before every call
  // bounds the instructions a mutator can execute between polls on any
  // path — straight-line code without calls terminates on its own. Polls
  // have no stack effect, so FrameSlots is computed on the original body
  // above.
  uint32_t NumPCs = static_cast<uint32_t>(Body.Instructions.size());
  std::vector<bool> Poll(NumPCs, false);
  if (Opts.InsertSafepoints) {
    Poll = gcPoints(Body);
    for (uint32_t PC = 0; PC != NumPCs; ++PC)
      if (Body.Instructions[PC].Op == Opcode::Invoke)
        Poll[PC] = true;
  }
  // NewIdx[PC] = the instruction's index in the emitted stream; its
  // poll, if any, sits at NewIdx[PC] - 1. Branches land on the poll so
  // every back-edge polls.
  std::vector<uint32_t> NewIdx(NumPCs);
  uint32_t Emitted = 0;
  for (uint32_t PC = 0; PC != NumPCs; ++PC) {
    if (Poll[PC])
      ++Emitted;
    NewIdx[PC] = Emitted++;
  }

  FM.Code.resize(Emitted);
  for (uint32_t PC = 0; PC != NumPCs; ++PC) {
    const Instruction &Ins = Body.Instructions[PC];
    if (Poll[PC])
      FM.Code[NewIdx[PC] - 1].Op =
          static_cast<uint16_t>(FastOp::Safepoint);
    FastInst &FI = FM.Code[NewIdx[PC]];
    FI.A = Ins.A;
    FI.B = Ins.B;
    auto Set = [&FI](FastOp Op) { FI.Op = static_cast<uint16_t>(Op); };
    switch (Ins.Op) {
    case Opcode::IConst:
      Set(FastOp::IConst);
      break;
    case Opcode::AConstNull:
      Set(FastOp::AConstNull);
      break;
    case Opcode::ILoad:
    case Opcode::ALoad:
      Set(FastOp::Load);
      break;
    case Opcode::IStore:
    case Opcode::AStore:
      Set(FastOp::Store);
      break;
    case Opcode::IInc:
      Set(FastOp::IInc);
      break;
    case Opcode::Dup:
      Set(FastOp::Dup);
      break;
    case Opcode::Pop:
      Set(FastOp::Pop);
      break;
    case Opcode::Swap:
      Set(FastOp::Swap);
      break;
    case Opcode::IAdd:
      Set(FastOp::IAdd);
      break;
    case Opcode::ISub:
      Set(FastOp::ISub);
      break;
    case Opcode::IMul:
      Set(FastOp::IMul);
      break;
    case Opcode::IDiv:
      Set(FastOp::IDiv);
      break;
    case Opcode::IRem:
      Set(FastOp::IRem);
      break;
    case Opcode::INeg:
      Set(FastOp::INeg);
      break;
    case Opcode::GetField:
    case Opcode::PutField: {
      FieldId FId = static_cast<FieldId>(Ins.A);
      const FieldDecl &FD = P.fieldDecl(FId);
      FI.A = static_cast<int32_t>(Layout[FId].Slot);
      FI.B = static_cast<int32_t>(FD.Owner);
      if (Ins.Op == Opcode::GetField) {
        Set(FD.Type == JType::Ref ? FastOp::GetFieldRef
                                  : FastOp::GetFieldInt);
      } else if (FD.Type == JType::Int) {
        Set(FastOp::PutFieldInt);
      } else {
        uint16_t SF = Opts.Tier == TranslationTier::Speculative && Opts.Spec
                          ? specSiteFlags(CP, CM, PC, *Opts.Spec,
                                          /*IsStaticStore=*/false)
                          : 0;
        if (SF) {
          Set(FastOp::PutFieldRef_Spec);
          FI.C = SF;
        } else {
          Set(selectPutField(storeVariant(CP, CM, PC, Opts.Tier)));
        }
        FI.Site = Offsets[M] + PC;
      }
      break;
    }
    case Opcode::GetStatic: {
      StaticFieldId SId = static_cast<StaticFieldId>(Ins.A);
      Set(P.staticDecl(SId).Type == JType::Ref ? FastOp::GetStaticRef
                                               : FastOp::GetStaticInt);
      break;
    }
    case Opcode::PutStatic: {
      StaticFieldId SId = static_cast<StaticFieldId>(Ins.A);
      if (P.staticDecl(SId).Type == JType::Int) {
        Set(FastOp::PutStaticInt);
      } else {
        uint16_t SF = Opts.Tier == TranslationTier::Speculative && Opts.Spec
                          ? specSiteFlags(CP, CM, PC, *Opts.Spec,
                                          /*IsStaticStore=*/true)
                          : 0;
        if (SF) {
          Set(FastOp::PutStaticRef_Spec);
          FI.C = SF;
        } else {
          Set(selectPutStatic(storeVariant(CP, CM, PC, Opts.Tier)));
        }
        FI.Site = Offsets[M] + PC;
      }
      break;
    }
    case Opcode::NewInstance:
      Set(FastOp::NewInstance);
      break;
    case Opcode::NewRefArray:
      Set(FastOp::NewRefArray);
      break;
    case Opcode::NewIntArray:
      Set(FastOp::NewIntArray);
      break;
    case Opcode::AALoad:
      Set(FastOp::AALoad);
      break;
    case Opcode::IALoad:
      Set(FastOp::IALoad);
      break;
    case Opcode::IAStore:
      Set(FastOp::IAStore);
      break;
    case Opcode::AAStore: {
      uint16_t SF = Opts.Tier == TranslationTier::Speculative && Opts.Spec
                        ? specSiteFlags(CP, CM, PC, *Opts.Spec,
                                        /*IsStaticStore=*/false)
                        : 0;
      if (SF) {
        Set(FastOp::AAStore_Spec);
        FI.C = SF;
      } else {
        Set(selectAAStore(storeVariant(CP, CM, PC, Opts.Tier)));
      }
      FI.Site = Offsets[M] + PC;
      break;
    }
    case Opcode::ArrayFill:
    case Opcode::ArrayCopy: {
      const bool IsFill = Ins.Op == Opcode::ArrayFill;
      uint16_t SF = Opts.Tier == TranslationTier::Speculative && Opts.Spec
                        ? specSiteFlags(CP, CM, PC, *Opts.Spec,
                                        /*IsStaticStore=*/false)
                        : 0;
      if (SF) {
        Set(IsFill ? FastOp::ArrayFill_Spec : FastOp::ArrayCopy_Spec);
        FI.C = SF;
      } else {
        Set(selectBulk(storeVariant(CP, CM, PC, Opts.Tier), IsFill));
      }
      FI.Site = Offsets[M] + PC;
      break;
    }
    case Opcode::ArrayLength:
      Set(FastOp::ArrayLength);
      break;
    case Opcode::Invoke:
      Set(FastOp::Invoke);
      FI.C = static_cast<uint16_t>(
          CP.method(static_cast<MethodId>(Ins.A)).Body.numArgs());
      break;
    case Opcode::Goto:
      Set(FastOp::Goto);
      break;
    case Opcode::IfEq:
      Set(FastOp::IfEq);
      break;
    case Opcode::IfNe:
      Set(FastOp::IfNe);
      break;
    case Opcode::IfLt:
      Set(FastOp::IfLt);
      break;
    case Opcode::IfGe:
      Set(FastOp::IfGe);
      break;
    case Opcode::IfGt:
      Set(FastOp::IfGt);
      break;
    case Opcode::IfLe:
      Set(FastOp::IfLe);
      break;
    case Opcode::IfICmpEq:
      Set(FastOp::IfICmpEq);
      break;
    case Opcode::IfICmpNe:
      Set(FastOp::IfICmpNe);
      break;
    case Opcode::IfICmpLt:
      Set(FastOp::IfICmpLt);
      break;
    case Opcode::IfICmpGe:
      Set(FastOp::IfICmpGe);
      break;
    case Opcode::IfICmpGt:
      Set(FastOp::IfICmpGt);
      break;
    case Opcode::IfICmpLe:
      Set(FastOp::IfICmpLe);
      break;
    case Opcode::IfNull:
      Set(FastOp::IfNull);
      break;
    case Opcode::IfNonNull:
      Set(FastOp::IfNonNull);
      break;
    case Opcode::IfACmpEq:
      Set(FastOp::IfACmpEq);
      break;
    case Opcode::IfACmpNe:
      Set(FastOp::IfACmpNe);
      break;
    case Opcode::Ret:
      Set(FastOp::Ret);
      break;
    case Opcode::IReturn:
      Set(FastOp::IReturn);
      break;
    case Opcode::AReturn:
      Set(FastOp::AReturn);
      break;
    case Opcode::RearrangeEnter:
      Set(FastOp::RearrangeEnter);
      break;
    case Opcode::RearrangeEnterDyn:
      Set(FastOp::RearrangeEnterDyn);
      break;
    case Opcode::RearrangeExit:
      Set(FastOp::RearrangeExit);
      break;
    }
    // Branches become self-relative displacements: a taken branch is a
    // single IP += A with no code-base register in the dispatch loop.
    // With polls inserted, a branch targets its target's poll (if any)
    // so the back-edge cannot skip it.
    if (isBranch(Ins.Op)) {
      uint32_t T = static_cast<uint32_t>(Ins.A);
      uint32_t TIdx = NewIdx[T] - (Poll[T] ? 1 : 0);
      FI.A = static_cast<int32_t>(TIdx) - static_cast<int32_t>(NewIdx[PC]);
    }
  }
  if (Opts.Fuse)
    fuseMethod(FM);
  return FM;
}

} // namespace

FastProgram satb::translateProgram(const Program &P, const CompiledProgram &CP,
                                   const TranslateOptions &Opts) {
  std::vector<FieldSlot> Layout = computeFieldLayout(P);
  std::vector<uint32_t> Offsets = CP.instrOffsets();

  FastProgram FP;
  FP.Methods.resize(CP.Methods.size());
  for (MethodId M = 0; M != CP.Methods.size(); ++M) {
    FP.Methods[M] = translateMethodImpl(P, CP, M, Opts, Layout, Offsets);
    FP.MaxFrameSlots = std::max(FP.MaxFrameSlots, FP.Methods[M].FrameSlots);
  }
  return FP;
}

FastMethod satb::translateMethod(const Program &P, const CompiledProgram &CP,
                                 MethodId M, const TranslateOptions &Opts) {
  return translateMethodImpl(P, CP, M, Opts, computeFieldLayout(P),
                             CP.instrOffsets());
}

bool satb::siteComponentsKept(const CompiledProgram &CP, MethodId M,
                              uint32_t PC, bool &MarkKept, bool &RemKept,
                              bool &Speculable) {
  const CompiledMethod &CM = CP.Methods[M];
  if (PC >= CM.Analysis.Decisions.size() ||
      !CM.Analysis.Decisions[PC].IsBarrierSite)
    return false;
  bool IsStaticStore = CM.Body.Instructions[PC].Op == Opcode::PutStatic;
  SiteComponents SC = siteComponents(CP, CM, PC, IsStaticStore);
  MarkKept = SC.MarkKept;
  RemKept = SC.RemKept;
  Speculable = SC.Speculable;
  return true;
}
