//===- analysis/AbstractValue.h - The analysis value domain ----*- C++ -*-===//
///
/// \file
/// The Value domain of Sections 2.1 and 3.2: Bottom, a set of abstract
/// references (RefVal; the empty set means "definitely null"), or a
/// symbolic integer (IntVal). Conflict covers verifier-rejected mixes and
/// is never loadable in verified code.
///
/// Two optional annotations support the Section 4.3 null-or-same extension:
///   - SrcLocal: the local this value was loaded from (aload), still valid;
///   - null-or-same tags: (base local, field, strength) triples meaning the
///     value may be stored into `local[base].field` without a SATB barrier.
///     Strength Eq means "value == current field contents"; strength Safe
///     means "value == field contents, or the field is currently null".
///
//===----------------------------------------------------------------------===//

#ifndef SATB_ANALYSIS_ABSTRACTVALUE_H
#define SATB_ANALYSIS_ABSTRACTVALUE_H

#include "analysis/IntVal.h"
#include "bytecode/Program.h"
#include "support/BitSet.h"

#include <algorithm>
#include <vector>

namespace satb {

/// A null-or-same tag: this value may be stored into
/// `local[BaseLocal].Field` without a barrier. See file comment.
struct NosTag {
  uint32_t BaseLocal;
  FieldId Field;
  bool IsEq; ///< Eq strength (true) vs. Safe strength (false)

  bool operator<(const NosTag &O) const {
    if (BaseLocal != O.BaseLocal)
      return BaseLocal < O.BaseLocal;
    return Field < O.Field; // strength is a property, not part of the key
  }
  bool operator==(const NosTag &O) const {
    return BaseLocal == O.BaseLocal && Field == O.Field && IsEq == O.IsEq;
  }
};

class AbstractValue {
public:
  enum class Kind : uint8_t { Bottom, Refs, Int, Conflict };

  /// Default: Bottom (unreached / uninitialized).
  AbstractValue() = default;

  static AbstractValue bottom() { return AbstractValue(); }
  static AbstractValue conflict() {
    AbstractValue V;
    V.K = Kind::Conflict;
    return V;
  }
  static AbstractValue refs(BitSet Set) {
    AbstractValue V;
    V.K = Kind::Refs;
    V.RefSet = std::move(Set);
    return V;
  }
  /// The definitely-null value: an empty reference set over a universe of
  /// \p NumRefs references.
  static AbstractValue nullRef(uint32_t NumRefs) {
    return refs(BitSet(NumRefs));
  }
  static AbstractValue singleRef(uint32_t NumRefs, uint32_t R) {
    BitSet S(NumRefs);
    S.set(R);
    return refs(std::move(S));
  }
  static AbstractValue intVal(IntVal V) {
    AbstractValue A;
    A.K = Kind::Int;
    A.Int = std::move(V);
    return A;
  }

  Kind kind() const { return K; }
  bool isBottom() const { return K == Kind::Bottom; }
  bool isRefs() const { return K == Kind::Refs; }
  bool isInt() const { return K == Kind::Int; }

  const BitSet &refSet() const {
    assert(isRefs() && "not a reference value");
    return RefSet;
  }
  BitSet &refSet() {
    assert(isRefs() && "not a reference value");
    return RefSet;
  }
  const IntVal &intValue() const {
    assert(isInt() && "not an integer value");
    return Int;
  }

  /// \returns true when this is a reference value proven null (empty set).
  bool isDefinitelyNull() const { return isRefs() && RefSet.empty(); }

  // --- Null-or-same annotations (ignored unless the extension is on). ---

  uint32_t srcLocal() const { return SrcLocal; }
  void setSrcLocal(uint32_t L) { SrcLocal = L; }
  void clearSrcLocal() { SrcLocal = InvalidId; }

  const std::vector<NosTag> &nosTags() const { return Tags; }
  /// Adds \p T, keeping tags sorted and taking the stronger form on
  /// duplicates.
  void addNosTag(NosTag T);
  /// Removes every tag whose field is \p F.
  void dropNosTagsForField(FieldId F);
  /// Removes every tag whose base local is \p Base.
  void dropNosTagsForBase(uint32_t Base);
  void clearNosTags() { Tags.clear(); }
  /// \returns the tag for (Base, F) if present.
  const NosTag *findNosTag(uint32_t Base, FieldId F) const;

  /// Merges (lattice join) \p Incoming into this value. \returns true if
  /// this value changed. Integer merging is delegated to \p MergeInts
  /// (the Figure 1 procedure lives in StateMerger and needs merge-wide
  /// context).
  template <typename IntMergeFn>
  bool mergeFrom(const AbstractValue &Incoming, IntMergeFn MergeInts) {
    if (Incoming.isBottom())
      return false;
    if (isBottom()) {
      *this = Incoming;
      return true;
    }
    bool Changed = false;
    if (K == Kind::Refs && Incoming.K == Kind::Refs) {
      Changed = RefSet.unionWith(Incoming.RefSet);
    } else if (K == Kind::Int && Incoming.K == Kind::Int) {
      IntVal Merged = MergeInts(Int, Incoming.Int);
      if (Merged != Int) {
        Int = std::move(Merged);
        Changed = true;
      }
    } else if (K != Kind::Conflict) {
      K = Kind::Conflict;
      RefSet = BitSet();
      Int = IntVal();
      Changed = true;
    }
    Changed |= mergeAnnotations(Incoming);
    return Changed;
  }

  bool operator==(const AbstractValue &O) const {
    if (K != O.K)
      return false;
    switch (K) {
    case Kind::Bottom:
    case Kind::Conflict:
      break;
    case Kind::Refs:
      if (RefSet != O.RefSet)
        return false;
      break;
    case Kind::Int:
      if (Int != O.Int)
        return false;
      break;
    }
    return SrcLocal == O.SrcLocal && Tags == O.Tags;
  }
  bool operator!=(const AbstractValue &O) const { return !(*this == O); }

private:
  /// Intersects tags, weakens strengths, and invalidates a disagreeing
  /// SrcLocal. \returns true on change.
  bool mergeAnnotations(const AbstractValue &Incoming);

  Kind K = Kind::Bottom;
  BitSet RefSet;
  IntVal Int;
  uint32_t SrcLocal = InvalidId;
  std::vector<NosTag> Tags; ///< sorted by (BaseLocal, Field)
};

} // namespace satb

#endif // SATB_ANALYSIS_ABSTRACTVALUE_H
