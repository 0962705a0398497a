// Package bitset provides a dense, fixed-capacity bitset used by the
// synchronous-process simulator to represent per-round vertex sets (black
// vertices, active vertices, stable vertices, ...) with O(n/64) word
// operations. The simulator's inner loop is dominated by set queries and
// population counts, which this representation makes cache-friendly.
package bitset

import (
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bitset over the universe [0, Len()). The zero value
// is an empty set of capacity zero; use New to size it.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set over the universe [0, n).
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity (universe size) of the set.
func (s *Set) Len() int { return s.n }

// Reset reshapes s into an empty set over the universe [0, n), reusing the
// existing word allocation when its capacity suffices. It is the recycling
// primitive behind the engine's per-worker run contexts: a batch worker
// resets the same sets for every run instead of allocating fresh ones.
func (s *Set) Reset(n int) {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	words := (n + wordBits - 1) / wordBits
	if cap(s.words) < words {
		s.words = make([]uint64, words)
	} else {
		s.words = s.words[:words]
		for i := range s.words {
			s.words[i] = 0
		}
	}
	s.n = n
}

// Add inserts i into the set.
func (s *Set) Add(i int) {
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove deletes i from the set.
func (s *Set) Remove(i int) {
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// SetTo adds i when v is true and removes it otherwise.
func (s *Set) SetTo(i int, v bool) {
	if v {
		s.Add(i)
	} else {
		s.Remove(i)
	}
}

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool {
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Flip toggles membership of i.
func (s *Set) Flip(i int) {
	s.words[i/wordBits] ^= 1 << (uint(i) % wordBits)
}

// Clear removes all elements.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill adds every element of the universe.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// trim zeroes the bits above the universe size in the last word, preserving
// the invariant that Count never sees phantom elements.
func (s *Set) trim() {
	if rem := uint(s.n) % wordBits; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << rem) - 1
	}
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// CopyFrom overwrites s with the contents of t. The sets must have the same
// capacity.
func (s *Set) CopyFrom(t *Set) {
	s.mustMatch(t)
	copy(s.words, t.words)
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := New(s.n)
	copy(c.words, s.words)
	return c
}

// Union sets s = s ∪ t.
func (s *Set) Union(t *Set) {
	s.mustMatch(t)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// Intersect sets s = s ∩ t.
func (s *Set) Intersect(t *Set) {
	s.mustMatch(t)
	for i, w := range t.words {
		s.words[i] &= w
	}
}

// Subtract sets s = s \ t.
func (s *Set) Subtract(t *Set) {
	s.mustMatch(t)
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// Equal reports whether s and t contain exactly the same elements. Sets of
// different capacity are never equal.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether s ∩ t is nonempty.
func (s *Set) Intersects(t *Set) bool {
	s.mustMatch(t)
	for i, w := range t.words {
		if s.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// IntersectionCount returns |s ∩ t| without materializing the intersection.
func (s *Set) IntersectionCount(t *Set) int {
	s.mustMatch(t)
	c := 0
	for i, w := range t.words {
		c += bits.OnesCount64(s.words[i] & w)
	}
	return c
}

// ForEach calls fn for every element of the set in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		base := wi * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(base + tz)
			w &= w - 1
		}
	}
}

// Words returns the number of 64-bit words backing the set: ⌈Len()/64⌉.
func (s *Set) Words() int { return len(s.words) }

// Word returns the wi-th backing word; bit b of word wi is element 64·wi+b.
// Bits at or above the universe size are always zero.
func (s *Set) Word(wi int) uint64 { return s.words[wi] }

// SetWord overwrites the wi-th backing word wholesale. Bits above the
// universe size in the final word are masked off, preserving the Count
// invariant. It is the word-parallel counterpart of SetTo: the engine's
// bit-sliced kernel re-derives 64 memberships at a time and lands them here
// with one store instead of 64 Contains/SetTo round trips.
func (s *Set) SetWord(wi int, w uint64) {
	s.words[wi] = w
	if wi == len(s.words)-1 {
		s.trim()
	}
}

// ForEachWord calls fn once per nonzero backing word, in increasing order,
// passing the word's base element index (a multiple of 64) and the word
// itself. Iterating set bits with bits.TrailingZeros64 at the call site
// costs one closure call per 64-element word instead of one per element,
// which is what makes dense worklist scans word-parallel:
//
//	s.ForEachWord(func(base int, w uint64) {
//		for ; w != 0; w &= w - 1 {
//			u := base + bits.TrailingZeros64(w)
//			...
//		}
//	})
func (s *Set) ForEachWord(fn func(base int, w uint64)) {
	for wi, w := range s.words {
		if w != 0 {
			fn(wi*wordBits, w)
		}
	}
}

// ForEachInRange calls fn for every element of s in [lo, hi), in increasing
// order. lo and hi are clamped to the universe.
func (s *Set) ForEachInRange(lo, hi int, fn func(i int)) {
	if lo < 0 {
		lo = 0
	}
	if hi > s.n {
		hi = s.n
	}
	if lo >= hi {
		return
	}
	for wi := lo / wordBits; wi <= (hi-1)/wordBits; wi++ {
		w := s.words[wi]
		base := wi * wordBits
		// Mask off bits below lo in the first word and at/above hi in the last.
		if base < lo {
			w &^= (1 << uint(lo-base)) - 1
		}
		if base+wordBits > hi {
			w &= (1 << uint(hi-base)) - 1
		}
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(base + tz)
			w &= w - 1
		}
	}
}

// Elements appends the elements of s, in increasing order, to dst and returns
// the extended slice. Pass nil to allocate.
func (s *Set) Elements(dst []int) []int {
	s.ForEach(func(i int) { dst = append(dst, i) })
	return dst
}

// String renders the set as a compact element list, e.g. "{1 5 9}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		writeInt(&b, i)
	})
	b.WriteByte('}')
	return b.String()
}

func (s *Set) mustMatch(t *Set) {
	if s.n != t.n {
		panic("bitset: capacity mismatch")
	}
}

// writeInt writes the decimal representation of non-negative v without
// allocating via fmt.
func writeInt(b *strings.Builder, v int) {
	if v == 0 {
		b.WriteByte('0')
		return
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	b.Write(buf[i:])
}
