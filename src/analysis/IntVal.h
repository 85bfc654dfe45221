//===- analysis/IntVal.h - Symbolic linear integer values ------*- C++ -*-===//
///
/// \file
/// The IntVal abstract integer domain of Section 3.2: "a linear combination
/// of integer terms ... at most one term in a variable unknown, one
/// constant term, and zero or more terms in constant unknowns:
/// a*u + k0*c0 + ... + kn*cn + b". Constant unknowns (c_i) have the same
/// value in all states (created for integer parameters and argument-array
/// lengths, Section 3.4); variable unknowns (v_i) are created by the state
/// merge of Figure 1 and may differ between states. Symbolic arithmetic
/// degrades to Top when it leaves the representable form.
///
//===----------------------------------------------------------------------===//

#ifndef SATB_ANALYSIS_INTVAL_H
#define SATB_ANALYSIS_INTVAL_H

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace satb {

using VarId = uint32_t;
using ConstUnknownId = uint32_t;
constexpr uint32_t NoVar = ~uint32_t(0);

/// One K*c term of an IntVal: coefficient Coeff on constant unknown Id.
struct UnknownTerm {
  ConstUnknownId Id;
  int64_t Coeff;
  bool operator==(const UnknownTerm &) const = default;
};

/// A symbolic integer: Top, or VarCoeff*Var + sum(K_i * c_i) + Const.
///
/// The constant-unknown terms live inline while there is at most one of
/// them (every int parameter is one such c_i, Section 3.4, so the common
/// symbolic value is c_i + k) and spill to a heap array from two on;
/// copying, comparing or merging a one-term value allocates nothing.
class IntVal {
public:
  /// Default-constructed IntVals are the constant 0.
  IntVal() = default;
  // Copies and moves of inline values stay inline and branch once; only a
  // spilled source or target leaves the fast path.
  IntVal(const IntVal &O) { *this = O; }
  IntVal(IntVal &&O) noexcept { take(O); }
  IntVal &operator=(const IntVal &O) {
    if (spilled() || O.spilled())
      return assignSpilled(O);
    Top = O.Top;
    Var = O.Var;
    VarCoeff = O.VarCoeff;
    One = O.One;
    NumTerms = O.NumTerms;
    Const = O.Const;
    return *this;
  }
  IntVal &operator=(IntVal &&O) noexcept {
    if (this != &O) {
      freeSpill();
      take(O);
    }
    return *this;
  }
  ~IntVal() { freeSpill(); }

  static IntVal top() {
    IntVal V;
    V.Top = true;
    return V;
  }
  static IntVal constant(int64_t C) {
    IntVal V;
    V.Const = C;
    return V;
  }
  static IntVal constUnknown(ConstUnknownId Id) {
    IntVal V;
    V.One = {Id, 1};
    V.NumTerms = 1;
    return V;
  }
  static IntVal variable(VarId Id) {
    IntVal V;
    V.Var = Id;
    V.VarCoeff = 1;
    return V;
  }

  bool isTop() const { return Top; }
  bool hasVarTerm() const { return !Top && VarCoeff != 0; }
  VarId var() const { return Var; }
  int64_t varCoeff() const { return Top ? 0 : VarCoeff; }
  int64_t constTerm() const { return Const; }
  /// The constant-unknown terms, sorted by Id; coefficients never zero.
  std::span<const UnknownTerm> unknownTerms() const {
    return {terms(), NumTerms};
  }

  /// int_const(v): a literal integer with no symbolic terms at all.
  bool isPureConstant() const {
    return !Top && VarCoeff == 0 && NumTerms == 0;
  }

  /// \returns true if the value has no variable-unknown term (it may still
  /// contain constant unknowns).
  bool isVarFree() const { return !Top && VarCoeff == 0; }

  friend IntVal operator+(const IntVal &A, const IntVal &B);
  friend IntVal operator-(const IntVal &A, const IntVal &B);
  IntVal negate() const;
  IntVal addConstant(int64_t C) const;
  IntVal mulConstant(int64_t K) const;
  /// General multiply: exact when either side is a pure constant, Top
  /// otherwise.
  static IntVal mul(const IntVal &A, const IntVal &B);

  bool operator==(const IntVal &O) const {
    if (Top || O.Top)
      return Top == O.Top;
    if (VarCoeff != O.VarCoeff || (VarCoeff != 0 && Var != O.Var) ||
        Const != O.Const || NumTerms != O.NumTerms)
      return false;
    const UnknownTerm *A = terms(), *B = O.terms();
    for (uint32_t I = 0; I != NumTerms; ++I)
      if (!(A[I] == B[I]))
        return false;
    return true;
  }
  bool operator!=(const IntVal &O) const { return !(*this == O); }

  /// \returns this value with \p V replaced by \p Replacement (used by the
  /// Figure 1 merge to validate substitutions). Top if the result leaves
  /// the representable form.
  IntVal substituteVar(VarId V, const IntVal &Replacement) const;

  /// \returns a debug rendering like "2*v1 + 3*c0 - 1" or "top".
  std::string str() const;

private:
  bool spilled() const { return SpillCap != 0; }
  const UnknownTerm *terms() const { return spilled() ? Spill : &One; }
  UnknownTerm *terms() { return spilled() ? Spill : &One; }
  /// \returns writable storage for \p N terms (inline for N <= 1); the
  /// caller fills it, sets NumTerms, and calls canonicalize().
  UnknownTerm *reserveTerms(uint32_t N);
  /// Copy assignment when either side is spilled.
  IntVal &assignSpilled(const IntVal &O);
  void freeSpill() {
    if (spilled())
      delete[] Spill;
  }
  /// Moves \p O's value here (this holds no spill) and leaves \p O with
  /// no terms.
  void take(IntVal &O) {
    Top = O.Top;
    Var = O.Var;
    VarCoeff = O.VarCoeff;
    NumTerms = O.NumTerms;
    SpillCap = O.SpillCap;
    Const = O.Const;
    if (O.spilled()) {
      Spill = O.Spill;
      O.NumTerms = O.SpillCap = 0;
    } else {
      One = O.One;
    }
  }
  /// Clears a zero VarCoeff's Var, drops zero-coefficient terms, and moves
  /// a spilled list that shrank to one term or none back inline.
  void canonicalize();

  bool Top = false;
  VarId Var = NoVar;
  int64_t VarCoeff = 0;
  /// The terms, sorted by Id with no zero coefficients: One while
  /// NumTerms <= 1, else Spill (SpillCap entries on the heap).
  union {
    UnknownTerm One{0, 0};
    UnknownTerm *Spill;
  };
  uint32_t NumTerms = 0;
  uint32_t SpillCap = 0;
  int64_t Const = 0;
};

// AbstractValue embeds an IntVal; a second inline term would grow both.
static_assert(sizeof(IntVal) == 48, "IntVal keeps one term inline in 48 bytes");

IntVal operator+(const IntVal &A, const IntVal &B);
IntVal operator-(const IntVal &A, const IntVal &B);

/// Registry of constant unknowns for one analysis run, remembering which
/// are known non-negative (argument-array lengths are; plain int arguments
/// are not).
class ConstUnknownRegistry {
public:
  ConstUnknownId create(bool NonNegative) {
    NonNeg.push_back(NonNegative);
    return static_cast<ConstUnknownId>(NonNeg.size() - 1);
  }
  bool isNonNegative(ConstUnknownId Id) const {
    return Id < NonNeg.size() && NonNeg[Id];
  }

private:
  std::vector<bool> NonNeg;
};

/// \returns true when \p V >= 0 is provable: V is var-free, its literal
/// constant part is >= 0, and every constant-unknown term has a
/// non-negative coefficient on an unknown known non-negative.
bool provablyNonNegative(const IntVal &V, const ConstUnknownRegistry &Reg);

} // namespace satb

#endif // SATB_ANALYSIS_INTVAL_H
