package mis

// Internal-invariant property tests: the incremental counters that make the
// simulator fast (black-neighbor counts, active counts, stabilization
// flags) must always agree with a from-scratch recomputation, including
// after mid-run corruption — the classic class of bugs in incremental
// simulators.

import (
	"testing"
	"testing/quick"

	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

func (p *TwoState) checkCounters(t *testing.T) {
	t.Helper()
	if err := p.core.CheckIntegrity(); err != nil {
		t.Fatalf("2-state: %v", err)
	}
	blackCnt := 0
	for u := 0; u < p.N(); u++ {
		if p.Black(u) {
			blackCnt++
		}
	}
	if blackCnt != p.BlackCount() {
		t.Fatalf("round %d: BlackCount = %d, recomputed %d", p.Round(), p.BlackCount(), blackCnt)
	}
}

func TestTwoStateCounterIntegrityUnderRunAndCorruption(t *testing.T) {
	master := xrand.New(61)
	for trial := 0; trial < 15; trial++ {
		r := master.Split(uint64(trial))
		g := graph.Gnp(60, 0.1, r)
		p := NewTwoState(g, WithSeed(uint64(trial)))
		p.checkCounters(t)
		for i := 0; i < 60; i++ {
			if r.Intn(10) == 0 {
				p.Corrupt(r.Intn(g.N()), r.Bit())
			} else {
				p.Step()
			}
			p.checkCounters(t)
		}
	}
}

func (p *ThreeState) checkCounters(t *testing.T) {
	t.Helper()
	if err := p.core.CheckIntegrity(); err != nil {
		t.Fatalf("3-state: %v", err)
	}
}

func TestThreeStateCounterIntegrityUnderRunAndCorruption(t *testing.T) {
	master := xrand.New(62)
	for trial := 0; trial < 15; trial++ {
		r := master.Split(uint64(trial))
		g := graph.Gnp(60, 0.1, r)
		p := NewThreeState(g, WithSeed(uint64(trial)))
		p.checkCounters(t)
		for i := 0; i < 60; i++ {
			if r.Intn(10) == 0 {
				p.Corrupt(r.Intn(g.N()), TriState(1+r.Intn(3)))
			} else {
				p.Step()
			}
			p.checkCounters(t)
		}
	}
}

func (p *ThreeColor) checkCounters(t *testing.T) {
	t.Helper()
	if err := p.core.CheckIntegrity(); err != nil {
		t.Fatalf("3-color: %v", err)
	}
	grays := 0
	for u := 0; u < p.N(); u++ {
		if p.ColorOf(u) == ColorGray {
			grays++
		}
	}
	if grays != p.GrayCount() {
		t.Fatalf("round %d: GrayCount = %d, recomputed %d", p.Round(), p.GrayCount(), grays)
	}
}

func TestThreeColorCounterIntegrityUnderRunAndCorruption(t *testing.T) {
	master := xrand.New(63)
	for trial := 0; trial < 15; trial++ {
		r := master.Split(uint64(trial))
		g := graph.Gnp(60, 0.1, r)
		p := NewThreeColor(g, WithSeed(uint64(trial)))
		p.checkCounters(t)
		for i := 0; i < 60; i++ {
			if r.Intn(10) == 0 {
				p.Corrupt(r.Intn(g.N()), Color(1+r.Intn(3)), uint8(r.Intn(6)))
			} else {
				p.Step()
			}
			p.checkCounters(t)
		}
	}
}

// The 3-color worklist holds a gray vertex only while its switch is on, so
// it is only right if every switch change reaches the refresh. A switch
// cycle is ~133 rounds, longer than the short runs above: this runs ~11
// cycles on G(2000, avg 6) with CheckIntegrity every round, which
// recomputes Touched = active ∪ (gray ∧ on) for every vertex. Mid-run, a
// Corrupt writes a gray vertex whose switch is on, then a Rebind and a
// checkpoint resume follow. Both vertex orders (the relabeled switch lives
// in relabeled ids) run the whole sequence.
func TestThreeColorWorklistIntegrityLong(t *testing.T) {
	g := graph.GnpAvgDegree(2000, 6, xrand.New(66))
	h := graph.GnpAvgDegree(2000, 6, xrand.New(67))
	const rounds, corruptAt, rebindAt, resumeAt = 1500, 400, 600, 800
	for _, order := range []struct {
		name string
		opt  Option
	}{{"identity", WithIdentityOrder()}, {"degree", WithDegreeOrder()}} {
		t.Run(order.name, func(t *testing.T) {
			p := NewThreeColor(g, WithSeed(68), order.opt)
			p.checkCounters(t)
			for i := 1; i <= rounds; i++ {
				switch i {
				case corruptAt:
					p.Corrupt(17, ColorGray, 2)
					if !p.SwitchOn(17) {
						t.Fatal("corrupted vertex's switch is off")
					}
				case rebindAt:
					p.Rebind(h)
				case resumeAt:
					cp, err := p.Checkpoint()
					if err != nil {
						t.Fatal(err)
					}
					if p, err = RestoreThreeColor(h, cp, order.opt); err != nil {
						t.Fatal(err)
					}
				}
				if i == corruptAt || i == rebindAt || i == resumeAt {
					p.checkCounters(t)
				}
				p.Step()
				p.checkCounters(t)
			}
		})
	}
}

// Once Stabilized() reports true it must never revert (without corruption):
// property over random graphs and seeds, for all three processes.
func TestStabilizationMonotoneProperty(t *testing.T) {
	master := xrand.New(64)
	f := func(seed uint64) bool {
		r := master.Split(seed)
		n := 2 + r.Intn(50)
		g := graph.Gnp(n, r.Float64()*0.3, r)
		for _, p := range []Process{
			NewTwoState(g, WithSeed(seed)),
			NewThreeState(g, WithSeed(seed)),
			NewThreeColor(g, WithSeed(seed)),
		} {
			Run(p, 4*DefaultRoundCap(n))
			if !p.Stabilized() {
				return false
			}
			for i := 0; i < 20; i++ {
				p.Step()
				if !p.Stabilized() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The black set of a stabilized 3-color process contains no gray vertices'
// conflicts: grays may persist indefinitely only if they are dominated by a
// stable black neighbor.
func TestThreeColorStabilizedGraysAreDominated(t *testing.T) {
	g := graph.Gnp(80, 0.1, xrand.New(65))
	p := NewThreeColor(g, WithSeed(9))
	Run(p, 20000)
	if !p.Stabilized() {
		t.Fatal("did not stabilize")
	}
	for u := 0; u < g.N(); u++ {
		if p.ColorOf(u) != ColorGray {
			continue
		}
		dominated := false
		for _, v := range g.Neighbors(u) {
			if p.ColorOf(int(v)) == ColorBlack {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Fatalf("stabilized gray vertex %d has no black neighbor", u)
		}
	}
}
