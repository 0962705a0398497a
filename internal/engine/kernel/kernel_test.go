package kernel

import (
	"math/bits"
	"testing"

	"ssmis/internal/xrand"
)

// Local mirrors of the paper rules' lane programs, restated here so the
// kernel package tests do not depend on internal/mis, plus one three-code
// shape that engages the hi lane without counter B.
var (
	// 2-state: white=1, black=2, the canonical XOR-flip shape.
	twoProg = MustCompile(Spec{
		StateOf: [4]uint8{1, 2, 0, 0},
		Active:  TruthTable(func(code int, a, _ bool) bool { return (code&1 == 1) == a }),
		Touched: TruthTable(func(code int, a, _ bool) bool { return (code&1 == 1) == a }),
		CoinHi:  [4]uint8{1, 1, 0, 0},
		CoinLo:  [4]uint8{0, 0, 0, 0},
	})
	// 3-state: white=1, black0=2 (code 1), black1=3 (code 3), counter-B lane.
	triProg = MustCompile(Spec{
		StateOf: [4]uint8{1, 2, 0, 3},
		UseB:    true,
		Active: TruthTable(func(code int, a, b bool) bool {
			switch code {
			case 3:
				return true
			case 1:
				return !b
			default:
				return !a
			}
		}),
		Touched: TruthTable(func(code int, a, _ bool) bool { return code&1 == 1 || !a }),
		CoinHi:  [4]uint8{3, 3, 3, 3},
		CoinLo:  [4]uint8{1, 1, 1, 1},
		Forced:  [4]uint8{0, 0, 0, 0},
	})
	// A three-code shape without counter B: white=1, black=2, gray=3
	// (code 2); the 2-state coins, and a gray vertex always drains to
	// white. Coin-constant, with the hi lane engaged and no hasBNbr lane.
	drainProg = MustCompile(Spec{
		StateOf: [4]uint8{1, 2, 3, 0},
		Active:  TruthTable(func(code int, a, _ bool) bool { return code < 2 && (code == 1) == a }),
		Touched: TruthTable(func(code int, a, _ bool) bool { return code == 2 || code < 2 && (code == 1) == a }),
		CoinHi:  [4]uint8{1, 1, 0, 0},
		CoinLo:  [4]uint8{0, 0, 0, 0},
		Forced:  [4]uint8{0, 0, 0, 0},
	})
	allProgs = []struct {
		name string
		prog *Program
	}{{"2-state", twoProg}, {"3-state", triProg}, {"drain", drainProg}}
)

// usedStates returns the program's rule state values.
func usedStates(p *Program) []uint8 {
	var out []uint8
	for _, s := range p.spec.StateOf {
		if s != 0 {
			out = append(out, s)
		}
	}
	return out
}

// randomLanes builds lanes for prog plus the per-vertex state/counter
// vectors they were packed from.
func randomLanes(prog *Program, n int, rng *xrand.Rand) (*Lanes, []uint8, []int32, []int32) {
	states := usedStates(prog)
	state := make([]uint8, n)
	nbrA := make([]int32, n)
	nbrB := make([]int32, n)
	for u := range state {
		state[u] = states[rng.Intn(len(states))]
		if rng.Bit() {
			nbrA[u] = int32(1 + rng.Intn(5))
		}
		if prog.UseB() && rng.Bit() {
			nbrB[u] = int32(1 + rng.Intn(3))
		}
	}
	l := New(prog, n)
	l.LoadState(state)
	loadCounters(l, nbrA, nbrB)
	return l, state, nbrA, nbrB
}

// loadCounters packs the neighbor lanes from flat counter arrays (bit u set
// ⟺ counter > 0); nbrB is ignored unless the program engages the B lane.
// It is the flat reference for the engine's plane-aware settle.
func loadCounters(l *Lanes, nbrA, nbrB []int32) {
	for u := 0; u < l.n; u++ {
		bit := uint64(1) << uint(u%wordBits)
		if nbrA[u] > 0 {
			l.hbnA[u/wordBits] |= bit
		}
		if l.prog.UseB() && nbrB[u] > 0 {
			l.hbnB[u/wordBits] |= bit
		}
	}
}

// The Shannon-compiled word expressions must agree with their truth tables
// bit-for-bit on arbitrary inputs — every fold shape gets hit across 400
// random tables.
func TestCompileTableMatchesTable(t *testing.T) {
	rng := xrand.New(11)
	for trial := 0; trial < 400; trial++ {
		table := uint16(rng.Uint64())
		f := compileTable(uint32(table), 3)
		lo, hi, a, b := rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()
		got := f(lo, hi, a, b)
		for bit := uint(0); bit < 64; bit++ {
			idx := lo>>bit&1 | hi>>bit&1<<1 | a>>bit&1<<2 | b>>bit&1<<3
			if got>>bit&1 != uint64(table>>idx&1) {
				t.Fatalf("table %#04x bit %d (idx %d): compiled %d, table %d",
					table, bit, idx, got>>bit&1, table>>idx&1)
			}
		}
	}
}

// Lane packing must round-trip bit-for-bit through all engaged lanes, and
// the tail word must never carry phantom vertices.
func TestLoadRoundTripAndTail(t *testing.T) {
	rng := xrand.New(1)
	for _, tc := range allProgs {
		for _, n := range []int{1, 63, 64, 65, 130, 512} {
			l, state, nbrA, nbrB := randomLanes(tc.prog, n, rng)
			for u := 0; u < n; u++ {
				if l.StateAt(u) != state[u] {
					t.Fatalf("%s n=%d: state of %d decodes to %d, want %d", tc.name, n, u, l.StateAt(u), state[u])
				}
				if l.HasANbr(u) != (nbrA[u] > 0) {
					t.Fatalf("%s n=%d: hasANbr bit of %d wrong", tc.name, n, u)
				}
				if tc.prog.UseB() && l.HasBNbr(u) != (nbrB[u] > 0) {
					t.Fatalf("%s n=%d: hasBNbr bit of %d wrong", tc.name, n, u)
				}
			}
			last := l.Words() - 1
			if l.BlackWord(last)&^l.mask(last) != 0 ||
				l.ActiveWord(last)&^l.mask(last) != 0 ||
				l.TouchedWord(last)&^l.mask(last) != 0 {
				t.Fatalf("%s n=%d: phantom bits above the universe", tc.name, n)
			}
		}
	}
}

// The compiled activity/worklist/core words must agree with the per-vertex
// truth tables for every rule shape.
func TestPredicateWordIdentities(t *testing.T) {
	rng := xrand.New(2)
	for _, tc := range allProgs {
		for trial := 0; trial < 10; trial++ {
			n := 1 + rng.Intn(300)
			l, state, nbrA, nbrB := randomLanes(tc.prog, n, rng)
			for u := 0; u < n; u++ {
				code := int(l.Code(u))
				a, b := nbrA[u] > 0, nbrB[u] > 0
				if got := l.ActiveWord(u/64)>>(uint(u)%64)&1 == 1; got != tc.prog.ActiveBit(code, a, b) {
					t.Fatalf("%s n=%d vertex %d: active=%v, table says %v", tc.name, n, u, got, !got)
				}
				if got := l.TouchedWord(u/64)>>(uint(u)%64)&1 == 1; got != tc.prog.TouchedBit(code, a, b) {
					t.Fatalf("%s n=%d vertex %d: touched=%v, table says %v", tc.name, n, u, got, !got)
				}
				wantCore := l.Black(u) && nbrA[u] == 0
				if got := l.CoreWord(u/64)>>(uint(u)%64)&1 == 1; got != wantCore {
					t.Fatalf("%s n=%d vertex %d: core=%v, rule says %v", tc.name, n, u, got, wantCore)
				}
				_ = state
			}
		}
	}
}

// FillHBNComplete must agree with the per-vertex counter semantics of a
// complete graph at every class total, including the total=1 asymmetry (the
// lone member has no same-class neighbor, everyone else has one) — for both
// the ClassA (black) and ClassB (black1) lanes.
func TestFillHBNComplete(t *testing.T) {
	rng := xrand.New(3)
	for _, n := range []int{1, 2, 65, 200} {
		for _, totalB := range []int{0, 1, 2, 5} {
			if totalB > n {
				continue
			}
			for extraA := 0; extraA < 3; extraA++ {
				totalA := totalB + extraA
				if totalA > n {
					continue
				}
				state := make([]uint8, n)
				for u := range state {
					state[u] = 1
				}
				perm := rng.Perm(n)
				for i := 0; i < totalA; i++ {
					state[perm[i]] = 2 // black0
					if i < totalB {
						state[perm[i]] = 3 // black1
					}
				}
				l := New(triProg, n)
				l.LoadState(state)
				l.FillHBNComplete(totalA, totalB)
				for u := 0; u < n; u++ {
					othersA, othersB := totalA, totalB
					if state[u] != 1 {
						othersA--
					}
					if state[u] == 3 {
						othersB--
					}
					if l.HasANbr(u) != (othersA > 0) {
						t.Fatalf("n=%d totalA=%d vertex %d: hasANbr=%v, want %v",
							n, totalA, u, l.HasANbr(u), othersA > 0)
					}
					if l.HasBNbr(u) != (othersB > 0) {
						t.Fatalf("n=%d totalB=%d vertex %d: hasBNbr=%v, want %v",
							n, totalB, u, l.HasBNbr(u), othersB > 0)
					}
				}
			}
		}
	}
}

// Incremental maintenance (SetHasANbr/SetHasBNbr on zero crossings) must
// reach the same lanes as a bulk re-pack of the final counters.
func TestIncrementalHBNMatchesBulk(t *testing.T) {
	rng := xrand.New(4)
	n := 200
	l, _, nbrA, nbrB := randomLanes(triProg, n, rng)
	bump := func(cnt []int32, u int, set func(int, bool)) {
		da := int32(1)
		if cnt[u] > 0 && rng.Bit() {
			da = -1
		}
		nv := cnt[u] + da
		cnt[u] = nv
		if nv == da {
			set(u, true)
		} else if nv == 0 {
			set(u, false)
		}
	}
	for step := 0; step < 4000; step++ {
		u := rng.Intn(n)
		if rng.Bit() {
			bump(nbrA, u, l.SetHasANbr)
		} else {
			bump(nbrB, u, l.SetHasBNbr)
		}
	}
	ref := New(triProg, n)
	loadCounters(ref, nbrA, nbrB)
	for wi := 0; wi < l.Words(); wi++ {
		if l.hbnA[wi] != ref.hbnA[wi] {
			t.Fatalf("word %d: incremental A %#x vs bulk %#x", wi, l.hbnA[wi], ref.hbnA[wi])
		}
		if l.hbnB[wi] != ref.hbnB[wi] {
			t.Fatalf("word %d: incremental B %#x vs bulk %#x", wi, l.hbnB[wi], ref.hbnB[wi])
		}
	}
}

// scalarEval replays the scalar engine's evaluation loop straight off the
// spec: every touched vertex, ascending, draws a coin if active (next code
// from the coin maps) or takes its forced transition.
// EvalWords must produce the same changes from the same streams with the
// same bit accounting — for every rule shape, flip and coin-constant alike.
func scalarEval(l *Lanes, rngs []*xrand.Rand, bias float64) ([]Change, int64) {
	p := l.prog
	var changes []Change
	var drawn int64
	for u := 0; u < l.n; u++ {
		code := l.Code(u)
		a, b := l.HasANbr(u), l.HasBNbr(u)
		if !p.TouchedBit(int(code), a, b) {
			continue
		}
		var nc uint8
		if p.ActiveBit(int(code), a, b) {
			var coin bool
			if bias == 0.5 {
				drawn++
				coin = rngs[u].Bit()
			} else {
				drawn += 64
				coin = rngs[u].Bernoulli(bias)
			}
			if coin {
				nc = p.spec.CoinHi[code]
			} else {
				nc = p.spec.CoinLo[code]
			}
		} else {
			nc = p.spec.Forced[code]
		}
		if nc != code {
			changes = append(changes, Change{U: int32(u), S: p.spec.StateOf[nc]})
		}
	}
	return changes, drawn
}

func TestEvalWordsMatchesScalar(t *testing.T) {
	master := xrand.New(5)
	for _, tc := range allProgs {
		for trial := 0; trial < 20; trial++ {
			r := master.Split(uint64(trial))
			n := 1 + r.Intn(400)
			bias := 0.5
			if trial%3 == 1 {
				bias = 0.2 + r.Float64()*0.6
			}
			l, _, _, _ := randomLanes(tc.prog, n, r)
			mkStreams := func() []*xrand.Rand {
				rngs := make([]*xrand.Rand, n)
				for u := range rngs {
					rngs[u] = master.Split(uint64(1000*trial + u))
				}
				return rngs
			}
			kChanges, kBits := l.EvalWords(mkStreams(), bias, nil)
			sChanges, sBits := scalarEval(l, mkStreams(), bias)
			if kBits != sBits {
				t.Fatalf("%s trial %d: bits %d vs %d", tc.name, trial, kBits, sBits)
			}
			if len(kChanges) != len(sChanges) {
				t.Fatalf("%s trial %d: %d changes vs %d", tc.name, trial, len(kChanges), len(sChanges))
			}
			for i := range kChanges {
				if kChanges[i] != sChanges[i] {
					t.Fatalf("%s trial %d change %d: %+v vs %+v", tc.name, trial, i, kChanges[i], sChanges[i])
				}
			}
		}
	}
}

// Only the canonical 2-state shape may take the XOR-flip fast path; every
// other program Compile admits is coin-constant.
func TestFastPathDetection(t *testing.T) {
	if !twoProg.fast2 {
		t.Fatal("2-state program did not detect the flip fast path")
	}
	if triProg.fast2 || drainProg.fast2 {
		t.Fatal("multi-lane program claimed the flip fast path")
	}
	if !triProg.coinConst || !drainProg.coinConst {
		t.Fatal("coin-constant detection missed a coin-constant program")
	}
}

// Configure must recycle capacity without leaking bits from a previous,
// larger execution — including across rule switches (2-state → 3-state →
// back), where lanes the previous program engaged but the next one also
// uses must come back fully zeroed, not just masked (the reuse-path
// regression: stale words beyond the new tail).
func TestConfigureRuleSwitchClearsLanes(t *testing.T) {
	l := New(triProg, 300)
	dirtyAll := func() {
		for wi := range l.lo {
			l.lo[wi] = ^uint64(0)
			l.hbnA[wi] = ^uint64(0)
		}
		for wi := range l.hi {
			l.hi[wi] = ^uint64(0)
		}
		for wi := range l.hbnB {
			l.hbnB[wi] = ^uint64(0)
		}
	}
	checkZero := func(step string) {
		t.Helper()
		for _, lane := range [][]uint64{l.lo, l.hi, l.hbnA, l.hbnB} {
			for wi, w := range lane {
				if w != 0 {
					t.Fatalf("%s: stale lane word %d = %#x survived Configure", step, wi, w)
				}
			}
		}
	}
	dirtyAll()
	l.Configure(twoProg, 100)
	if l.Words() != 2 || l.N() != 100 {
		t.Fatalf("reshaped to %d words / n=%d", l.Words(), l.N())
	}
	if len(l.hi) != 0 || len(l.hbnB) != 0 {
		t.Fatal("2-state program left multi-lane state engaged")
	}
	checkZero("tri→two")

	// Back to 3-state, larger than the 2-state run but smaller than the
	// original: the hi/hbnB lanes come back from retained capacity and must
	// not resurrect the 300-vertex run's set bits.
	dirtyAll()
	l.Configure(triProg, 130)
	if len(l.hi) != l.Words() || len(l.hbnB) != l.Words() {
		t.Fatal("3-state program did not re-engage the hi/hbnB lanes")
	}
	checkZero("two→tri")

	dirtyAll()
	l.Configure(drainProg, 90)
	if len(l.hi) != l.Words() || len(l.hbnB) != 0 {
		t.Fatal("drain program lane engagement wrong")
	}
	checkZero("tri→drain")

	if popTotal(l) != 0 {
		t.Fatal("stale population")
	}
}

func popTotal(l *Lanes) int {
	c := 0
	for _, lane := range [][]uint64{l.lo, l.hi, l.hbnA, l.hbnB} {
		for _, w := range lane {
			c += bits.OnesCount64(w)
		}
	}
	return c
}

// Compile must reject structurally inconsistent specs.
func TestCompileRejectsBadSpecs(t *testing.T) {
	base := twoProg.spec
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"duplicate state", func(s *Spec) { s.StateOf[2] = s.StateOf[0] }},
		{"no black code", func(s *Spec) { s.StateOf[1] = 0 }},
		{"UseB without code 3", func(s *Spec) { s.UseB = true }},
		{"active outside touched", func(s *Spec) { s.Touched = 0 }},
		{"b-dependent without UseB", func(s *Spec) {
			s.Active = TruthTable(func(code int, a, b bool) bool { return b })
			s.Touched = s.Active
		}},
		{"coin target unused", func(s *Spec) { s.CoinHi = [4]uint8{2, 2, 0, 0} }},
		{"forced target unused", func(s *Spec) {
			// Make code 0 forced-reachable (touched ⊃ active) and send it
			// to an unused code.
			s.Touched = TruthTable(func(int, bool, bool) bool { return true })
			s.Forced = [4]uint8{2, 0, 0, 0}
		}},
		{"neither flip nor coin-constant", func(s *Spec) {
			// white=1, black=2, gray=3 (code 2): an active black retreats to
			// gray on coin 0 while an active white stays white, so the coin
			// targets depend on the code, and a gray vertex drains to white.
			*s = Spec{
				StateOf: [4]uint8{1, 2, 3, 0},
				Active:  TruthTable(func(code int, a, _ bool) bool { return code < 2 && (code == 1) == a }),
				Touched: TruthTable(func(code int, a, _ bool) bool { return code == 2 || code < 2 && (code == 1) == a }),
				CoinHi:  [4]uint8{1, 1, 0, 0},
				CoinLo:  [4]uint8{0, 2, 0, 0},
				Forced:  [4]uint8{0, 0, 0, 0},
			}
		}},
	}
	for _, tc := range cases {
		spec := base
		tc.mut(&spec)
		if _, err := Compile(spec); err == nil {
			t.Fatalf("%s: Compile accepted a bad spec", tc.name)
		}
	}
}
