// Package kernel is the bit-sliced execution path for the paper's MIS rules.
// A rule's entire per-vertex truth is at most four bits — a 2-bit state code
// (lo/hi lanes), "counter A nonzero" (hasANbr), and "counter B nonzero"
// (hasBNbr). Instead of asking an interface per vertex, the kernel packs
// each bit into []uint64 lanes and evaluates 64 vertices per machine word:
//
//   - activity, quiescence checks, and membership refresh are branch-free
//     word operations compiled at registration from the rule's truth tables
//     (spec.go), masked by the live-vertex tail word;
//   - the stable core I_t is the word lo &^ hasANbr for every rule, because
//     the lo bit is the black projection by the encoding contract;
//   - evaluation iterates only the set bits of each touched word via
//     trailing-zero counts, drawing coins from the vertices' own streams.
//
// Determinism contract: coins are drawn in ascending vertex order, one per
// active vertex, from exactly the per-vertex stream the scalar engine would
// use, consuming exactly the same number of bits (one per coin at bias 1/2,
// one 64-bit Bernoulli sample otherwise). Forced transitions (the 3-state
// demotion) draw nothing, matching the scalar rules. Because every vertex
// owns its stream, the execution is coin-for-coin bit-identical to the
// scalar engine's — summaries, colors, coverage stamps, and RNG bit counts
// all agree, which is what the determinism-matrix and misfuzz differential
// harnesses pin with the scalar engine as golden.
//
// The neighbor lanes are not recomputed from scratch each round: the engine
// maintains them incrementally from its counters at commit time — a bit
// flips only when the counter crosses zero (see engine/kernelpath.go).
package kernel

import (
	"fmt"
	"math/bits"

	"ssmis/internal/xrand"
)

const wordBits = 64

// Change is one pending transition: vertex U moves to state S. The engine's
// commit consumes these; the layout matches the scalar engine's change
// record so both paths share one commit pipeline.
type Change struct {
	U int32
	S uint8
}

// Lanes is the bit-sliced state of one execution: one bit per vertex per
// lane, 64 vertices per word. Lanes the program does not engage stay empty.
// The zero value is not usable; call New (or Configure on reused memory).
type Lanes struct {
	prog *Program
	lo   []uint64 // state code bit 0 — the black projection
	hi   []uint64 // state code bit 1 (empty unless prog.UseHi)
	hbnA []uint64 // bit u ⟺ counter A of u nonzero (has a black neighbor)
	hbnB []uint64 // bit u ⟺ counter B of u nonzero (empty unless prog.UseB)
	n    int
	tail uint64 // mask of live bits in the final word
}

// New returns zeroed lanes over the universe [0, n) running prog.
func New(prog *Program, n int) *Lanes {
	l := &Lanes{}
	l.Configure(prog, n)
	return l
}

// growLane reshapes a lane to the given word count, fully zeroed, reusing
// capacity when possible.
func growLane(lane []uint64, words int) []uint64 {
	if cap(lane) < words {
		return make([]uint64, words)
	}
	lane = lane[:words]
	for i := range lane {
		lane[i] = 0
	}
	return lane
}

// Configure reshapes l to the universe [0, n) running prog, reusing word
// allocations when capacity suffices — the run-context recycling primitive
// (mirrors bitset.Set.Reset). Every engaged lane is zeroed over its whole
// new length, and lanes the program does not engage are truncated (capacity
// retained): a leased context switching between rules — 2-state to 3-state
// and back — never sees another rule's stale lane words.
func (l *Lanes) Configure(prog *Program, n int) {
	if prog == nil {
		panic("kernel: nil program")
	}
	if n < 0 {
		panic("kernel: negative universe")
	}
	words := (n + wordBits - 1) / wordBits
	l.lo = growLane(l.lo, words)
	l.hbnA = growLane(l.hbnA, words)
	if prog.useHi {
		l.hi = growLane(l.hi, words)
	} else {
		l.hi = l.hi[:0]
	}
	if prog.spec.UseB {
		l.hbnB = growLane(l.hbnB, words)
	} else {
		l.hbnB = l.hbnB[:0]
	}
	l.prog = prog
	l.n = n
	l.tail = ^uint64(0)
	if rem := uint(n) % wordBits; rem != 0 {
		l.tail = (1 << rem) - 1
	}
}

// N returns the universe size.
func (l *Lanes) N() int { return l.n }

// Words returns the number of 64-bit words per lane.
func (l *Lanes) Words() int { return len(l.lo) }

// Program returns the compiled rule program the lanes run.
func (l *Lanes) Program() *Program { return l.prog }

// mask returns the live-bit mask of word wi.
func (l *Lanes) mask(wi int) uint64 {
	if wi == len(l.lo)-1 {
		return l.tail
	}
	return ^uint64(0)
}

// laneBit reads bit u of a lane; an unengaged (empty) lane reads zero.
func laneBit(lane []uint64, u int) uint64 {
	if lane == nil || len(lane) == 0 {
		return 0
	}
	return lane[u/wordBits] >> (uint(u) % wordBits) & 1
}

// Code returns the 2-bit lane code of vertex u.
func (l *Lanes) Code(u int) uint8 {
	c := l.lo[u/wordBits] >> (uint(u) % wordBits) & 1
	if l.prog.useHi {
		c |= l.hi[u/wordBits] >> (uint(u) % wordBits) & 1 << 1
	}
	return uint8(c)
}

// StateAt returns the rule state value of vertex u (the code round-trip).
func (l *Lanes) StateAt(u int) uint8 { return l.prog.spec.StateOf[l.Code(u)] }

// Black reports the black projection of vertex u — the lo bit, by the
// encoding contract.
func (l *Lanes) Black(u int) bool {
	return l.lo[u/wordBits]>>(uint(u)%wordBits)&1 == 1
}

// HasANbr reports the hasANbr bit of vertex u (counter A nonzero).
func (l *Lanes) HasANbr(u int) bool { return laneBit(l.hbnA, u) == 1 }

// HasBNbr reports the hasBNbr bit of vertex u (counter B nonzero; false
// when the lane is not engaged).
func (l *Lanes) HasBNbr(u int) bool { return laneBit(l.hbnB, u) == 1 }

// setBit writes bit u of a lane.
func setBit(lane []uint64, u int, v bool) {
	bit := uint64(1) << (uint(u) % wordBits)
	if v {
		lane[u/wordBits] |= bit
	} else {
		lane[u/wordBits] &^= bit
	}
}

// SetState writes the lane code of state s at vertex u (sequential commit).
// It panics if s is not part of the encoding.
func (l *Lanes) SetState(u int, s uint8) {
	c := l.prog.codeOf[s]
	if c == invalidCode {
		panic(fmt.Sprintf("kernel: state %d not in the lane encoding", s))
	}
	setBit(l.lo, u, c&1 != 0)
	if l.prog.useHi {
		setBit(l.hi, u, c&2 != 0)
	}
}

// SetHasANbr sets the hasANbr bit of vertex u — the incremental maintenance
// hook: the engine's sequential commit calls it exactly when vertex u's
// counter A crosses zero.
func (l *Lanes) SetHasANbr(u int, v bool) { setBit(l.hbnA, u, v) }

// SetHasBNbr is SetHasANbr for counter B (the 3-state black1 count; its
// zero crossings include the demotion's db = −1 step).
func (l *Lanes) SetHasBNbr(u int, v bool) { setBit(l.hbnB, u, v) }

// HBNWords exposes the raw hasANbr/hasBNbr lane words for the engine's
// sequential commit, whose per-neighbor zero-crossing flips are the hottest
// writes on the kernel path — flipping bits inline there avoids a call per
// crossing. hbnB is nil for a program without counter B. Writers must
// preserve the lane contract (bit u set iff counter u is nonzero, tail bits
// zero); everyone else goes through SetHasANbr/SetHasBNbr or the bulk
// loaders.
func (l *Lanes) HBNWords() (hbnA, hbnB []uint64) { return l.hbnA, l.hbnB }

// StateWords exposes the raw state-code lane words, for the same commit hot
// loop (one inline flip pair per landed change instead of a SetState call).
// hi is nil when the second state lane is not engaged; the same contract
// caveats as HBNWords apply, plus: only codes the program declares may be
// written (Program.CodeOf is the guard).
func (l *Lanes) StateWords() (lo, hi []uint64) { return l.lo, l.hi }

// LoadState packs the state-code lanes from a per-vertex state vector.
// Rebuild-time bulk load; panics on a state outside the encoding.
func (l *Lanes) LoadState(state []uint8) {
	if len(state) != l.n {
		panic("kernel: state length mismatch")
	}
	for wi := range l.lo {
		base := wi * wordBits
		hi := base + wordBits
		if hi > l.n {
			hi = l.n
		}
		var wlo, whi uint64
		for u := base; u < hi; u++ {
			c := l.prog.codeOf[state[u]]
			if c == invalidCode {
				panic(fmt.Sprintf("kernel: state %d of vertex %d not in the lane encoding", state[u], u))
			}
			wlo |= uint64(c&1) << uint(u-base)
			whi |= uint64(c>>1) << uint(u-base)
		}
		l.lo[wi] = wlo
		if l.prog.useHi {
			l.hi[wi] = whi
		}
	}
}

// FillHBNComplete derives the whole neighbor lanes on a complete graph,
// where the engine keeps class totals instead of per-vertex counters: with
// totalA black vertices overall, a black vertex sees totalA−1 black
// neighbors and a non-black one sees totalA, so the hasANbr lane is
// all-ones for totalA ≥ 2, the complement of the black lane for totalA = 1,
// and zero otherwise — O(n/64) for the complete-graph refresh. The hasBNbr
// lane follows the same shape over the ClassB word lo∧hi with totalB.
func (l *Lanes) FillHBNComplete(totalA, totalB int) {
	switch {
	case totalA >= 2:
		for wi := range l.hbnA {
			l.hbnA[wi] = l.mask(wi)
		}
	case totalA == 1:
		for wi := range l.hbnA {
			l.hbnA[wi] = ^l.lo[wi] & l.mask(wi)
		}
	default:
		for wi := range l.hbnA {
			l.hbnA[wi] = 0
		}
	}
	if !l.prog.spec.UseB {
		return
	}
	switch {
	case totalB >= 2:
		for wi := range l.hbnB {
			l.hbnB[wi] = l.mask(wi)
		}
	case totalB == 1:
		for wi := range l.hbnB {
			l.hbnB[wi] = ^(l.lo[wi] & l.hi[wi]) & l.mask(wi)
		}
	default:
		for wi := range l.hbnB {
			l.hbnB[wi] = 0
		}
	}
}

// laneWords gathers word wi of the four predicate inputs (unengaged lanes
// read zero).
func (l *Lanes) laneWords(wi int) (lo, hi, a, b uint64) {
	lo, a = l.lo[wi], l.hbnA[wi]
	if l.prog.useHi {
		hi = l.hi[wi]
	}
	if l.prog.spec.UseB {
		b = l.hbnB[wi]
	}
	return lo, hi, a, b
}

// ActiveWord returns the activity word of word wi: the rule's compiled
// activity predicate over the lanes, masked by the live-vertex tail.
func (l *Lanes) ActiveWord(wi int) uint64 {
	lo, hi, a, b := l.laneWords(wi)
	return l.prog.active(lo, hi, a, b) & l.mask(wi)
}

// TouchedWord returns the worklist word of word wi — the vertices that may
// transition this round (active plus forced).
func (l *Lanes) TouchedWord(wi int) uint64 {
	lo, hi, a, b := l.laneWords(wi)
	return l.prog.touched(lo, hi, a, b) & l.mask(wi)
}

// CoreWord returns the stable-core word of word wi: black vertices with no
// black neighbor, i.e. the members of I_t among these 64 vertices. The lo
// bit is the black projection for every rule, so this is rule-generic.
func (l *Lanes) CoreWord(wi int) uint64 {
	return l.lo[wi] &^ l.hbnA[wi]
}

// BlackWord returns the black-projection lane word wi.
func (l *Lanes) BlackWord(wi int) uint64 { return l.lo[wi] }

// EvalWords evaluates one synchronous round over every lane word: each
// touched vertex, in ascending vertex order, either draws a coin from
// its own stream (active: next code from the CoinHi/CoinLo maps) or takes
// its forced transition (Forced, no coin), and the vertices whose state
// changes are appended to dst as pending changes.
// Nothing is committed — the lanes stay frozen at the pre-round state.
// It returns the extended change list and the number of random bits drawn,
// matching the scalar engine's accounting exactly: one bit per coin at bias
// 1/2, one 64-bit Bernoulli sample per coin otherwise. Compile admits only
// the two shapes with a word-level evaluator, so a program is either the
// XOR-flip shape or coin-constant.
func (l *Lanes) EvalWords(rngs []*xrand.Rand, bias float64, dst []Change) ([]Change, int64) {
	if l.prog.fast2 {
		return l.evalWordsFlip(rngs, bias, dst)
	}
	return l.evalWordsCoinConst(rngs, bias, dst)
}

// evalWordsCoinConst is EvalWords specialized to coin-constant programs
// (the 3-state shape): the next code of an active vertex is one constant on
// coin 1 and another on coin 0, and every forced transition lands on a third
// constant, so after the per-vertex coin draws the new lo/hi code bits of a
// whole touched word compose from selector masks and the change word falls
// out of two XORs — no per-bit table lookups, and only the bits that
// actually change are revisited. Coins are still drawn from each active
// vertex's own stream in ascending order (draw order across vertices is
// irrelevant — the streams are independent), and changes are emitted in
// ascending vertex order, as the scalar loop emits them.
func (l *Lanes) evalWordsCoinConst(rngs []*xrand.Rand, bias float64, dst []Change) ([]Change, int64) {
	p := l.prog
	cc := &p.cc
	stateOf := &p.spec.StateOf
	var drawn int64
	for wi := range l.lo {
		low, hiw, aw, bw := l.laneWords(wi)
		m := l.mask(wi)
		tw := p.touched(low, hiw, aw, bw) & m
		if tw == 0 {
			continue
		}
		actw := tw
		if !p.sameTA {
			actw = p.active(low, hiw, aw, bw) & m
		}
		base := wi * wordBits
		var coinw uint64
		if bias == 0.5 {
			drawn += int64(bits.OnesCount64(actw))
			for w := actw; w != 0; w &= w - 1 {
				tz := uint(bits.TrailingZeros64(w))
				coinw |= rngs[base+int(tz)].Uint64() >> 63 << tz
			}
		} else {
			drawn += 64 * int64(bits.OnesCount64(actw))
			for w := actw; w != 0; w &= w - 1 {
				tz := uint(bits.TrailingZeros64(w))
				if rngs[base+int(tz)].Bernoulli(bias) {
					coinw |= 1 << tz
				}
			}
		}
		forced := tw &^ actw
		newLo := (coinw&cc.chLo|^coinw&cc.clLo)&actw | cc.fLo&forced
		newHi := (coinw&cc.chHi|^coinw&cc.clHi)&actw | cc.fHi&forced
		for w := tw & ((newLo ^ low) | (newHi ^ hiw)); w != 0; w &= w - 1 {
			tz := uint(bits.TrailingZeros64(w))
			nc := newLo>>tz&1 | newHi>>tz&1<<1
			dst = append(dst, Change{U: int32(base + int(tz)), S: stateOf[nc]})
		}
	}
	return dst, drawn
}

// evalWordsFlip is EvalWords specialized to the canonical 2-state shape
// (Touched ≡ Active ≡ ¬(lo ⊕ hasANbr), new state = the coin): the new code
// is the coin itself, so transitions accumulate as an XOR flip word and
// only the flipped bits are revisited — the hot loop the CI speed gate
// pins, kept free of per-bit map lookups.
func (l *Lanes) evalWordsFlip(rngs []*xrand.Rand, bias float64, dst []Change) ([]Change, int64) {
	white, blk := l.prog.spec.StateOf[0], l.prog.spec.StateOf[1]
	var drawn int64
	for wi := range l.lo {
		aw := ^(l.lo[wi] ^ l.hbnA[wi]) & l.mask(wi)
		if aw == 0 {
			continue
		}
		base := wi * wordBits
		bw := l.lo[wi]
		var flips uint64
		if bias == 0.5 {
			drawn += int64(bits.OnesCount64(aw))
			for w := aw; w != 0; w &= w - 1 {
				tz := uint(bits.TrailingZeros64(w))
				coin := rngs[base+int(tz)].Uint64() >> 63 // 1 = black, the scalar Bit()
				flips |= (coin ^ (bw >> tz & 1)) << tz
			}
		} else {
			drawn += 64 * int64(bits.OnesCount64(aw))
			for w := aw; w != 0; w &= w - 1 {
				tz := uint(bits.TrailingZeros64(w))
				var coin uint64
				if rngs[base+int(tz)].Bernoulli(bias) {
					coin = 1
				}
				flips |= (coin ^ (bw >> tz & 1)) << tz
			}
		}
		for w := flips; w != 0; w &= w - 1 {
			tz := uint(bits.TrailingZeros64(w))
			ns := white
			if bw>>tz&1 == 0 {
				ns = blk
			}
			dst = append(dst, Change{U: int32(base + int(tz)), S: ns})
		}
	}
	return dst, drawn
}
