//===- analysis/IntVal.cpp ------------------------------------------------===//

#include "analysis/IntVal.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace satb;

IntVal &IntVal::assignSpilled(const IntVal &O) {
  if (this == &O)
    return *this;
  UnknownTerm *Dst = reserveTerms(O.NumTerms);
  std::copy(O.terms(), O.terms() + O.NumTerms, Dst);
  NumTerms = O.NumTerms;
  Top = O.Top;
  Var = O.Var;
  VarCoeff = O.VarCoeff;
  Const = O.Const;
  return *this;
}

UnknownTerm *IntVal::reserveTerms(uint32_t N) {
  if (N <= 1) {
    if (spilled()) {
      delete[] Spill;
      SpillCap = 0;
      One = {0, 0}; // makes One the union's active member again
    }
    return &One;
  }
  if (SpillCap < N) {
    freeSpill();
    Spill = new UnknownTerm[N];
    SpillCap = N;
  }
  return Spill;
}

void IntVal::canonicalize() {
  if (VarCoeff == 0)
    Var = NoVar;
  UnknownTerm *T = terms();
  NumTerms = static_cast<uint32_t>(
      std::remove_if(T, T + NumTerms,
                     [](const UnknownTerm &U) { return U.Coeff == 0; }) -
      T);
  if (spilled() && NumTerms <= 1) {
    UnknownTerm Last = NumTerms ? T[0] : UnknownTerm{0, 0};
    delete[] Spill;
    SpillCap = 0;
    One = Last;
  }
}

IntVal satb::operator+(const IntVal &A, const IntVal &B) {
  if (A.Top || B.Top)
    return IntVal::top();
  IntVal R;
  // Variable terms: at most one variable unknown is representable.
  if (A.VarCoeff != 0 && B.VarCoeff != 0) {
    if (A.Var != B.Var)
      return IntVal::top();
    R.Var = A.Var;
    R.VarCoeff = A.VarCoeff + B.VarCoeff;
  } else if (A.VarCoeff != 0) {
    R.Var = A.Var;
    R.VarCoeff = A.VarCoeff;
  } else if (B.VarCoeff != 0) {
    R.Var = B.Var;
    R.VarCoeff = B.VarCoeff;
  }
  // Merge sorted constant-unknown term lists.
  const UnknownTerm *TA = A.terms(), *TB = B.terms();
  const uint32_t NA = A.NumTerms, NB = B.NumTerms;
  UnknownTerm *Out = R.reserveTerms(NA + NB);
  uint32_t I = 0, J = 0, K = 0;
  while (I < NA || J < NB) {
    if (J == NB || (I < NA && TA[I].Id < TB[J].Id))
      Out[K++] = TA[I++];
    else if (I == NA || TB[J].Id < TA[I].Id)
      Out[K++] = TB[J++];
    else {
      Out[K++] = {TA[I].Id, TA[I].Coeff + TB[J].Coeff};
      ++I;
      ++J;
    }
  }
  R.NumTerms = K;
  R.Const = A.Const + B.Const;
  R.canonicalize();
  return R;
}

IntVal satb::operator-(const IntVal &A, const IntVal &B) {
  return A + B.negate();
}

IntVal IntVal::negate() const { return mulConstant(-1); }

IntVal IntVal::addConstant(int64_t C) const {
  if (Top)
    return top();
  IntVal R = *this;
  R.Const += C;
  return R;
}

IntVal IntVal::mulConstant(int64_t K) const {
  if (Top)
    return K == 0 ? constant(0) : top();
  IntVal R = *this;
  R.VarCoeff *= K;
  UnknownTerm *T = R.terms();
  for (uint32_t I = 0; I != R.NumTerms; ++I)
    T[I].Coeff *= K;
  R.Const *= K;
  R.canonicalize();
  return R;
}

IntVal IntVal::mul(const IntVal &A, const IntVal &B) {
  if (A.isPureConstant())
    return B.mulConstant(A.Const);
  if (B.isPureConstant())
    return A.mulConstant(B.Const);
  return top();
}

IntVal IntVal::substituteVar(VarId V, const IntVal &Replacement) const {
  if (Top)
    return top();
  if (VarCoeff == 0 || Var != V)
    return *this;
  IntVal WithoutVar = *this;
  WithoutVar.Var = NoVar;
  WithoutVar.VarCoeff = 0;
  return WithoutVar + Replacement.mulConstant(VarCoeff);
}

std::string IntVal::str() const {
  if (Top)
    return "top";
  std::string Out;
  char Buf[48];
  auto Term = [&](int64_t Coeff, const char *Sym, uint32_t Id) {
    if (Coeff == 0)
      return;
    if (!Out.empty())
      Out += Coeff < 0 ? " - " : " + ";
    else if (Coeff < 0)
      Out += "-";
    int64_t Abs = Coeff < 0 ? -Coeff : Coeff;
    if (Abs != 1) {
      std::snprintf(Buf, sizeof(Buf), "%lld*", static_cast<long long>(Abs));
      Out += Buf;
    }
    std::snprintf(Buf, sizeof(Buf), "%s%u", Sym, Id);
    Out += Buf;
  };
  Term(VarCoeff, "v", Var);
  for (const UnknownTerm &T : unknownTerms())
    Term(T.Coeff, "c", T.Id);
  if (Const != 0 || Out.empty()) {
    if (!Out.empty())
      Out += Const < 0 ? " - " : " + ";
    int64_t Abs = (Const < 0 && !Out.empty()) ? -Const : Const;
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(Abs));
    Out += Buf;
  }
  return Out;
}

bool satb::provablyNonNegative(const IntVal &V,
                               const ConstUnknownRegistry &Reg) {
  if (V.isTop() || V.hasVarTerm())
    return false;
  if (V.constTerm() < 0)
    return false;
  for (const UnknownTerm &T : V.unknownTerms())
    if (T.Coeff < 0 || !Reg.isNonNegative(T.Id))
      return false;
  return true;
}
