//===- e2ebench/src/TracedCompile.h - Compile with layer spans -*- C++ -*-===//
///
/// \file
/// The compile pipeline timed from outside, layer by layer: for each
/// method, inlineMethod -> verifyMethod -> analyzeBarriers ->
/// CodeSizeModel::bodyCost in compileMethod's order, then
/// translateProgram. Untraced, the same entry point calls compileProgram
/// (serial) and translateProgram directly, so the traced and untraced
/// runs measure the same program; sameCompile() checks the traced
/// result against compileProgram's.
///
//===----------------------------------------------------------------------===//

#ifndef E2EBENCH_TRACEDCOMPILE_H
#define E2EBENCH_TRACEDCOMPILE_H

#include "Harness.h"

#include "jit/FastCode.h"

namespace e2e {

struct Compiled {
  satb::CompiledProgram CP;
  satb::FastProgram FP;
  bool Verified = true; ///< the traced path found every body verifiable
};

/// Compiles \p P. With a tracer, runs compileMethod's stages one public
/// call at a time under spans named inliner, verifier, analysis and
/// jit.size, and clears \p Verified if a body fails verification; without
/// one, calls compileProgram. \p Opts must be serial (CompileThreads = 1)
/// without the rearrangement protocol.
satb::CompiledProgram compileStages(const satb::Program &P,
                                    const satb::CompilerOptions &Opts,
                                    Tracer *T, bool &Verified);

/// compileStages, then translateProgram (under a jit.translate span when
/// traced).
Compiled compileAndTranslate(const satb::Program &P,
                             const satb::CompilerOptions &Opts, Tracer *T,
                             const satb::TranslateOptions &TO = {});

/// \returns true when \p A and \p B agree on every per-site decision,
/// every kept barrier and the modeled code size.
bool sameCompile(const satb::CompiledProgram &A,
                 const satb::CompiledProgram &B);

/// Post-inline bytecodes of a compiled program.
uint64_t postInlineBytecodes(const satb::CompiledProgram &CP);

/// Counters the compile layers return, summed over compiled programs.
struct CompileCounters {
  uint64_t SitesInlined = 0;
  uint64_t BytecodesOut = 0;
  uint64_t BlockVisits = 0;
  uint64_t Sites = 0;
  uint64_t SitesElided = 0;
  uint64_t FastInsts = 0;
  void add(const satb::CompiledProgram &CP,
           const satb::FastProgram *FP = nullptr);
};

/// Emits the inliner/verifier/analysis/jit per-layer metrics from \p T's
/// self times and \p C, each divided by \p Units (the number of measured
/// units the trace covered).
void reportCompileLayers(Report &R, const Tracer &T, const CompileCounters &C,
                         double Units);

} // namespace e2e

#endif // E2EBENCH_TRACEDCOMPILE_H
