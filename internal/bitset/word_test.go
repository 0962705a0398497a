package bitset

import (
	"math/bits"
	"testing"

	"ssmis/internal/xrand"
)

// Word-level iteration must enumerate exactly the elements ForEach does, in
// the same increasing order, across sizes that exercise empty words, full
// words, and a partial tail word.
func TestForEachWordMatchesForEach(t *testing.T) {
	rng := xrand.New(3)
	for _, n := range []int{1, 63, 64, 65, 127, 200, 513} {
		for _, density := range []float64{0, 0.03, 0.5, 1} {
			s := New(n)
			for i := 0; i < n; i++ {
				if rng.Float64() < density {
					s.Add(i)
				}
			}
			var perBit, perWord []int
			s.ForEach(func(i int) { perBit = append(perBit, i) })
			s.ForEachWord(func(base int, w uint64) {
				for ; w != 0; w &= w - 1 {
					perWord = append(perWord, base+bits.TrailingZeros64(w))
				}
			})
			if len(perBit) != len(perWord) {
				t.Fatalf("n=%d density=%v: %d elements per-bit, %d per-word", n, density, len(perBit), len(perWord))
			}
			for i := range perBit {
				if perBit[i] != perWord[i] {
					t.Fatalf("n=%d density=%v: element %d is %d per-bit, %d per-word",
						n, density, i, perBit[i], perWord[i])
				}
			}
		}
	}
}

func TestSetWordMasksTail(t *testing.T) {
	s := New(70) // two words, 6 live bits in the tail word
	s.SetWord(0, ^uint64(0))
	s.SetWord(1, ^uint64(0))
	if got := s.Count(); got != 70 {
		t.Fatalf("count after full SetWord = %d, want 70", got)
	}
	if s.Word(1) != (1<<6)-1 {
		t.Fatalf("tail word = %#x, want %#x", s.Word(1), uint64(1<<6)-1)
	}
	s.SetWord(0, 0b1010)
	if s.Contains(0) || !s.Contains(1) || s.Contains(2) || !s.Contains(3) {
		t.Fatal("SetWord bits landed on wrong elements")
	}
	if s.Words() != 2 {
		t.Fatalf("Words() = %d, want 2", s.Words())
	}
}

// benchSet builds a deterministic set of the given size and density.
func benchSet(n int, density float64) *Set {
	rng := xrand.New(11)
	s := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			s.Add(i)
		}
	}
	return s
}

// The word-parallel satellite's claim: iterating a worklist a word at a time
// beats the per-element callback. sink defeats dead-code elimination.
var sink int

func benchForEach(b *testing.B, n int, density float64) {
	s := benchSet(n, density)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := 0
		s.ForEach(func(u int) { acc += u })
		sink = acc
	}
}

func benchForEachWord(b *testing.B, n int, density float64) {
	s := benchSet(n, density)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := 0
		s.ForEachWord(func(base int, w uint64) {
			for ; w != 0; w &= w - 1 {
				acc += base + bits.TrailingZeros64(w)
			}
		})
		sink = acc
	}
}

func BenchmarkForEachDense64k(b *testing.B)      { benchForEach(b, 1<<16, 0.9) }
func BenchmarkForEachWordDense64k(b *testing.B)  { benchForEachWord(b, 1<<16, 0.9) }
func BenchmarkForEachMid64k(b *testing.B)        { benchForEach(b, 1<<16, 0.2) }
func BenchmarkForEachWordMid64k(b *testing.B)    { benchForEachWord(b, 1<<16, 0.2) }
func BenchmarkForEachSparse64k(b *testing.B)     { benchForEach(b, 1<<16, 0.005) }
func BenchmarkForEachWordSparse64k(b *testing.B) { benchForEachWord(b, 1<<16, 0.005) }
