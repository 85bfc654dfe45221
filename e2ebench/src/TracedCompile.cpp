//===- e2ebench/src/TracedCompile.cpp -------------------------------------===//

#include "TracedCompile.h"

#include "verifier/Verifier.h"

using namespace satb;
using namespace e2e;

namespace {

/// compileMethod, one public call per stage, each under its layer span.
/// Mirrors jit/Compiler.cpp's barrier placement and code-size pricing so
/// sameCompile() can hold the two to bit-identical results.
CompiledMethod tracedMethod(const Program &P, MethodId Id,
                            const CompilerOptions &Opts, Tracer &T,
                            bool &Verified) {
  CompiledMethod CM;
  CM.Id = Id;
  {
    Span S(&T, "inliner");
    CM.Body = inlineMethod(P, P.method(Id), Opts.Inline, &CM.Inlining, Id);
  }
  {
    Span S(&T, "verifier");
    Verified &= verifyMethod(P, CM.Body).Ok;
  }
  {
    Span S(&T, "analysis");
    CM.Analysis = analyzeBarriers(P, CM.Body, Opts.Analysis);
  }

  Span Size(&T, "jit.size");
  const size_t N = CM.Body.Instructions.size();
  const bool NoBarriers = Opts.Barrier == BarrierMode::None;
  CM.BarrierKept.assign(N, false);
  std::vector<bool> AllKept(N, false);
  for (size_t I = 0; I != N; ++I) {
    const BarrierDecision &D = CM.Analysis.Decisions[I];
    if (!D.IsBarrierSite)
      continue;
    AllKept[I] = !NoBarriers;
    CM.BarrierKept[I] = !NoBarriers && !(Opts.ApplyElision && D.Elide);
  }
  uint32_t Cost = 0;
  switch (Opts.Barrier) {
  case BarrierMode::None:
    break;
  case BarrierMode::Satb:
  case BarrierMode::Generational:
    Cost = CodeSizeModel::SatbBarrierCost;
    break;
  case BarrierMode::SatbAlwaysLog:
    Cost = CodeSizeModel::SatbBarrierCost - 2;
    break;
  case BarrierMode::CardMarking:
    Cost = CodeSizeModel::CardBarrierCost;
    break;
  }
  CM.CodeSize = CodeSizeModel::bodyCost(CM.Body.Instructions, CM.BarrierKept,
                                        Cost);
  CM.CodeSizeNoElision =
      CodeSizeModel::bodyCost(CM.Body.Instructions, AllKept, Cost);
  if (Opts.Barrier == BarrierMode::Generational) {
    for (size_t I = 0; I != N; ++I) {
      const BarrierDecision &D = CM.Analysis.Decisions[I];
      if (!D.IsBarrierSite ||
          CM.Body.Instructions[I].Op == Opcode::PutStatic)
        continue;
      CM.CodeSizeNoElision += CodeSizeModel::GenRemSetCost;
      if (!(Opts.ApplyElision && D.TargetYoung))
        CM.CodeSize += CodeSizeModel::GenRemSetCost;
    }
  }
  CM.RearrangeStores.assign(N, false);
  return CM;
}

} // namespace

CompiledProgram e2e::compileStages(const Program &P,
                                   const CompilerOptions &Opts, Tracer *T,
                                   bool &Verified) {
  if (!T)
    return compileProgram(P, Opts);
  CompiledProgram CP;
  CP.Options = Opts;
  CP.Methods.resize(P.numMethods());
  for (size_t Id = 0; Id != P.numMethods(); ++Id)
    CP.Methods[Id] =
        tracedMethod(P, static_cast<MethodId>(Id), Opts, *T, Verified);
  return CP;
}

Compiled e2e::compileAndTranslate(const Program &P,
                                  const CompilerOptions &Opts, Tracer *T,
                                  const TranslateOptions &TO) {
  Compiled C;
  C.CP = compileStages(P, Opts, T, C.Verified);
  if (!C.Verified)
    return C; // translating an unverified body is undefined
  Span S(T, "jit.translate");
  C.FP = translateProgram(P, C.CP, TO);
  return C;
}

bool e2e::sameCompile(const CompiledProgram &A, const CompiledProgram &B) {
  if (A.Methods.size() != B.Methods.size())
    return false;
  for (size_t M = 0; M != A.Methods.size(); ++M) {
    const CompiledMethod &X = A.Methods[M], &Y = B.Methods[M];
    if (X.CodeSize != Y.CodeSize || X.CodeSizeNoElision != Y.CodeSizeNoElision ||
        X.BarrierKept != Y.BarrierKept ||
        X.Analysis.Decisions.size() != Y.Analysis.Decisions.size())
      return false;
    for (size_t I = 0; I != X.Analysis.Decisions.size(); ++I) {
      const BarrierDecision &D = X.Analysis.Decisions[I],
                            &E = Y.Analysis.Decisions[I];
      if (D.IsBarrierSite != E.IsBarrierSite || D.Elide != E.Elide ||
          D.TargetYoung != E.TargetYoung || D.Reason != E.Reason)
        return false;
    }
  }
  return true;
}

uint64_t e2e::postInlineBytecodes(const CompiledProgram &CP) {
  uint64_t N = 0;
  for (const CompiledMethod &CM : CP.Methods)
    N += CM.Body.byteCodeSize();
  return N;
}

void CompileCounters::add(const CompiledProgram &CP, const FastProgram *FP) {
  for (const CompiledMethod &CM : CP.Methods) {
    SitesInlined += CM.Inlining.CallSitesInlined;
    BytecodesOut += CM.Body.byteCodeSize();
    BlockVisits += CM.Analysis.BlockVisits;
    Sites += CM.Analysis.NumSites;
    SitesElided += CM.Analysis.NumElided;
  }
  if (FP)
    for (const FastMethod &FM : FP->Methods)
      FastInsts += FM.Code.size();
}

void e2e::reportCompileLayers(Report &R, const Tracer &T,
                              const CompileCounters &C, double Units) {
  double U = Units > 0 ? Units : 1.0;
  R.metric("inliner.self_ms", T.selfNs("inliner") / 1e6 / U, "ms");
  R.metric("inliner.sites_inlined", C.SitesInlined / U, "count");
  R.metric("inliner.bytecodes_out", C.BytecodesOut / U, "count");
  R.metric("verifier.self_ms", T.selfNs("verifier") / 1e6 / U, "ms");
  R.metric("analysis.self_ms", T.selfNs("analysis") / 1e6 / U, "ms");
  R.metric("analysis.block_visits", C.BlockVisits / U, "count");
  R.metric("analysis.sites", C.Sites / U, "count");
  R.metric("analysis.sites_elided", C.SitesElided / U, "count");
  R.metric("analysis.ns_per_bytecode",
           C.BytecodesOut ? T.selfNs("analysis") / double(C.BytecodesOut)
                          : 0.0,
           "ns");
  R.metric("jit.size_self_ms", T.selfNs("jit.size") / 1e6 / U, "ms");
  R.metric("jit.translate_self_ms", T.selfNs("jit.translate") / 1e6 / U,
           "ms");
  R.metric("jit.fast_insts", C.FastInsts / U, "count");
}
