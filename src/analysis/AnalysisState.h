//===- analysis/AnalysisState.h - The abstract program state ---*- C++ -*-===//
///
/// \file
/// The program state of Sections 2.1 and 3.2: the environment rho (locals),
/// the operand stack stk, the non-thread-local set NL, and the abstract
/// store sigma; extended with the array-analysis maps Len and NR, and with
/// the null-or-same path facts of the Section 4.3 extension.
///
/// sigma maps (abstract reference, field) pairs to values; object arrays
/// are modeled as an object with the single collapsing field f_elems
/// (Section 2.4). A key absent from sigma/Len/NR acts as Bottom: the
/// abstract name is unpopulated on the paths reaching this state.
///
/// States are copied on every block visit and merged at every join, so
/// the three maps are sorted flat vectors (FlatMap): copies clone one
/// contiguous buffer per map and merges are linear two-pointer walks.
/// Copying a buffer still copies each value: reference sets over at most
/// BitSet::InlineBits abstract references are inline and allocate nothing,
/// while larger sets, IntVal term lists and null-or-same tags own heap
/// memory.
///
//===----------------------------------------------------------------------===//

#ifndef SATB_ANALYSIS_ANALYSISSTATE_H
#define SATB_ANALYSIS_ANALYSISSTATE_H

#include "analysis/AbstractValue.h"
#include "analysis/IntRange.h"
#include "analysis/RefUniverse.h"
#include "support/FlatMap.h"

namespace satb {

/// Key for the abstract store: (RefId, field). The field component is a
/// program FieldId or the ElemsField sentinel for array contents.
struct StoreKey {
  RefId Ref;
  uint32_t Field;

  bool operator<(const StoreKey &O) const {
    if (Ref != O.Ref)
      return Ref < O.Ref;
    return Field < O.Field;
  }
  bool operator==(const StoreKey &O) const {
    return Ref == O.Ref && Field == O.Field;
  }
};

/// A null-or-same path fact: `local[BaseLocal].Field` currently contains
/// null (established by branch refinement; see NullOrSame.h).
struct NosFact {
  uint32_t BaseLocal;
  FieldId Field;

  bool operator<(const NosFact &O) const {
    if (BaseLocal != O.BaseLocal)
      return BaseLocal < O.BaseLocal;
    return Field < O.Field;
  }
  bool operator==(const NosFact &O) const = default;
};

struct AnalysisState {
  /// Sentinel field id for the collapsed array-element pseudo-field
  /// f_elems; chosen above all program FieldIds by the analysis.
  static constexpr uint32_t ElemsFieldBase = 0x40000000;

  std::vector<AbstractValue> Locals;       ///< rho
  std::vector<AbstractValue> Stack;        ///< stk
  BitSet NL;                               ///< non-thread-local refs
  FlatMap<StoreKey, AbstractValue> Store;  ///< sigma
  FlatMap<RefId, IntVal> Len;              ///< array lengths (mode A)
  FlatMap<RefId, IntRange> NR;             ///< null ranges (mode A)
  std::vector<NosFact> Facts;              ///< sorted null-or-same facts
  /// Generational extension: abstract references proven *young* — born at
  /// an allocation younger than every GC point on every path reaching this
  /// state. The most recent allocation's R_id/A name is young until a
  /// potential GC point (a call, or a poll-site block leader) kills the
  /// whole set; merged by intersection.
  BitSet Young;

  bool operator==(const AnalysisState &O) const {
    return Locals == O.Locals && Stack == O.Stack && NL == O.NL &&
           Store == O.Store && Len == O.Len && NR == O.NR &&
           Facts == O.Facts && Young == O.Young;
  }

  // --- Stack helpers -----------------------------------------------------

  void push(AbstractValue V) { Stack.push_back(std::move(V)); }
  AbstractValue popValue() {
    assert(!Stack.empty() && "abstract stack underflow");
    AbstractValue V = std::move(Stack.back());
    Stack.pop_back();
    return V;
  }
  const AbstractValue &top() const {
    assert(!Stack.empty() && "abstract stack underflow");
    return Stack.back();
  }

  // --- Store helpers -----------------------------------------------------

  /// Raw sigma read; Bottom when the key is unpopulated.
  const AbstractValue *storeEntry(RefId R, uint32_t Field) const {
    auto It = Store.find(StoreKey{R, Field});
    return It == Store.end() ? nullptr : &It->second;
  }

  /// Len lookup; Top when untracked.
  IntVal lenOf(RefId R) const {
    auto It = Len.find(R);
    return It == Len.end() ? IntVal::top() : It->second;
  }

  /// NR lookup; Empty (no information) when untracked.
  IntRange nullRangeOf(RefId R) const {
    auto It = NR.find(R);
    return It == NR.end() ? IntRange::empty() : It->second;
  }

  // --- Null-or-same fact helpers ------------------------------------------

  bool hasFact(uint32_t Base, FieldId F) const {
    NosFact Key{Base, F};
    auto It = std::lower_bound(Facts.begin(), Facts.end(), Key);
    return It != Facts.end() && *It == Key;
  }
  void addFact(uint32_t Base, FieldId F) {
    NosFact Key{Base, F};
    auto It = std::lower_bound(Facts.begin(), Facts.end(), Key);
    if (It == Facts.end() || !(*It == Key))
      Facts.insert(It, Key);
  }
  void dropFactsForField(FieldId F) {
    std::erase_if(Facts, [F](const NosFact &X) { return X.Field == F; });
  }
  void dropFactsForBase(uint32_t Base) {
    std::erase_if(Facts, [Base](const NosFact &X) { return X.BaseLocal == Base; });
  }
};

} // namespace satb

#endif // SATB_ANALYSIS_ANALYSISSTATE_H
