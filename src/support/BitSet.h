//===- support/BitSet.h - Dynamically sized bit set ------------*- C++ -*-===//
///
/// \file
/// A small dynamically sized bit set used to represent sets of abstract
/// references (RefSet) and other dense index sets. Unlike std::vector<bool>
/// it supports whole-set union/intersection and deterministic iteration.
///
/// The analysis copies and joins these sets on every block visit, so the
/// representation is allocation-free in the common case: a universe of up
/// to InlineBits bits keeps its word inline; only a larger universe spills
/// its words to the heap. Which representation a set uses is a function of
/// its size alone, never of its contents.
///
//===----------------------------------------------------------------------===//

#ifndef SATB_SUPPORT_BITSET_H
#define SATB_SUPPORT_BITSET_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

namespace satb {

/// Dynamically sized bit set with value semantics.
///
/// All mutating binary operations require both operands to have the same
/// size; callers size their universes up front.
class BitSet {
public:
  /// Universes up to this many bits are stored inline. One word covers
  /// every method of the `compile` benchmark pool except the large
  /// straight-line ones (at most 64 abstract references; see DESIGN.md
  /// "Fixpoint engine internals"), and keeps the type at 16 bytes.
  static constexpr size_t InlineBits = 64;

  BitSet() = default;
  explicit BitSet(size_t NumBits) { resize(NumBits); }

  BitSet(const BitSet &Other) : NumBits(Other.NumBits) {
    if (spilled())
      Heap = new uint64_t[numWords()];
    std::memcpy(words(), Other.words(), numWords() * sizeof(uint64_t));
  }

  BitSet(BitSet &&Other) noexcept { take(Other); }

  BitSet &operator=(const BitSet &Other) {
    if (this == &Other)
      return *this;
    // A spilled set of the same word count keeps its heap words.
    if (!(spilled() && Other.spilled() && numWords() == Other.numWords())) {
      release();
      if (Other.spilled())
        Heap = new uint64_t[Other.numWords()];
    }
    NumBits = Other.NumBits;
    std::memcpy(words(), Other.words(), numWords() * sizeof(uint64_t));
    return *this;
  }

  BitSet &operator=(BitSet &&Other) noexcept {
    if (this != &Other) {
      release();
      take(Other);
    }
    return *this;
  }

  ~BitSet() { release(); }

  size_t size() const { return NumBits; }

  /// Resizes to \p NewNumBits bits, all clear.
  void resize(size_t NewNumBits) {
    assert(NewNumBits <= std::numeric_limits<uint32_t>::max() &&
           "BitSet universe too large");
    const bool NewSpilled = NewNumBits > InlineBits;
    if (!(spilled() && NewSpilled && numWords() == wordsFor(NewNumBits))) {
      release();
      if (NewSpilled)
        Heap = new uint64_t[wordsFor(NewNumBits)];
    }
    NumBits = static_cast<uint32_t>(NewNumBits);
    clear();
  }

  void set(size_t I) {
    assert(I < NumBits && "bit index out of range");
    words()[I / 64] |= (uint64_t(1) << (I % 64));
  }

  void reset(size_t I) {
    assert(I < NumBits && "bit index out of range");
    words()[I / 64] &= ~(uint64_t(1) << (I % 64));
  }

  bool test(size_t I) const {
    assert(I < NumBits && "bit index out of range");
    return (words()[I / 64] >> (I % 64)) & 1;
  }

  void clear() {
    uint64_t *W = words();
    for (size_t I = 0, E = numWords(); I != E; ++I)
      W[I] = 0;
  }

  bool empty() const {
    const uint64_t *W = words();
    for (size_t I = 0, E = numWords(); I != E; ++I)
      if (W[I] != 0)
        return false;
    return true;
  }

  size_t count() const {
    const uint64_t *W = words();
    size_t N = 0;
    for (size_t I = 0, E = numWords(); I != E; ++I)
      N += static_cast<size_t>(__builtin_popcountll(W[I]));
    return N;
  }

  /// Set union: *this |= Other. \returns true if any bit was added.
  bool unionWith(const BitSet &Other) {
    assert(NumBits == Other.NumBits && "size mismatch in BitSet union");
    uint64_t *W = words();
    const uint64_t *O = Other.words();
    uint64_t Added = 0;
    for (size_t I = 0, E = numWords(); I != E; ++I) {
      Added |= O[I] & ~W[I];
      W[I] |= O[I];
    }
    return Added != 0;
  }

  /// Set intersection: *this &= Other. \returns true if any bit was
  /// removed.
  bool intersectWith(const BitSet &Other) {
    assert(NumBits == Other.NumBits && "size mismatch in BitSet intersect");
    uint64_t *W = words();
    const uint64_t *O = Other.words();
    uint64_t Removed = 0;
    for (size_t I = 0, E = numWords(); I != E; ++I) {
      Removed |= W[I] & ~O[I];
      W[I] &= O[I];
    }
    return Removed != 0;
  }

  /// \returns true if the two sets share any element.
  bool intersects(const BitSet &Other) const {
    assert(NumBits == Other.NumBits && "size mismatch in BitSet intersects");
    const uint64_t *W = words(), *O = Other.words();
    for (size_t I = 0, E = numWords(); I != E; ++I)
      if (W[I] & O[I])
        return true;
    return false;
  }

  /// \returns true if every element of *this is also in Other.
  bool isSubsetOf(const BitSet &Other) const {
    assert(NumBits == Other.NumBits && "size mismatch in BitSet subset");
    const uint64_t *W = words(), *O = Other.words();
    for (size_t I = 0, E = numWords(); I != E; ++I)
      if (W[I] & ~O[I])
        return false;
    return true;
  }

  bool operator==(const BitSet &Other) const {
    return NumBits == Other.NumBits &&
           std::memcmp(words(), Other.words(),
                       numWords() * sizeof(uint64_t)) == 0;
  }
  bool operator!=(const BitSet &Other) const { return !(*this == Other); }

  /// Invoke \p Fn(index) for every set bit, in increasing index order.
  template <typename FnT> void forEach(FnT Fn) const {
    const uint64_t *Ws = words();
    for (size_t WI = 0, WE = numWords(); WI != WE; ++WI) {
      uint64_t W = Ws[WI];
      while (W) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(W));
        Fn(WI * 64 + Bit);
        W &= W - 1;
      }
    }
  }

  /// \returns the index of the lowest set bit; the set must be non-empty.
  size_t firstSetBit() const {
    const uint64_t *W = words();
    for (size_t WI = 0, WE = numWords(); WI != WE; ++WI)
      if (W[WI])
        return WI * 64 + static_cast<unsigned>(__builtin_ctzll(W[WI]));
    assert(false && "firstSetBit on empty BitSet");
    return 0;
  }

private:
  static size_t wordsFor(size_t Bits) { return (Bits + 63) / 64; }
  size_t numWords() const { return wordsFor(NumBits); }
  bool spilled() const { return NumBits > InlineBits; }
  uint64_t *words() { return spilled() ? Heap : &Inline; }
  const uint64_t *words() const { return spilled() ? Heap : &Inline; }

  /// Moves \p Other's words into this empty set and leaves \p Other
  /// empty.
  void take(BitSet &Other) {
    NumBits = Other.NumBits;
    if (spilled())
      Heap = Other.Heap;
    else
      Inline = Other.Inline;
    Other.NumBits = 0;
    Other.Inline = 0;
  }

  /// Frees a spilled word array and leaves an empty inline set.
  void release() {
    if (spilled())
      delete[] Heap;
    NumBits = 0;
    Inline = 0;
  }

  uint32_t NumBits = 0;
  union {
    uint64_t Inline = 0; ///< the words while NumBits <= InlineBits
    uint64_t *Heap;      ///< the words once spilled
  };
};

} // namespace satb

#endif // SATB_SUPPORT_BITSET_H
