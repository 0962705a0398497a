package ssmis_test

import (
	"reflect"
	"slices"
	"testing"

	"ssmis"
)

func TestPublicAPIQuickPath(t *testing.T) {
	g := ssmis.Gnp(300, 0.02, 7)
	if g.N() != 300 {
		t.Fatal("Gnp wrong order")
	}
	p := ssmis.NewTwoState(g, ssmis.WithSeed(42))
	res := ssmis.Run(p, 0)
	if !res.Stabilized {
		t.Fatal("2-state did not stabilize")
	}
	set := ssmis.BlackSet(p)
	if err := ssmis.VerifyMIS(g, set); err != nil {
		t.Fatal(err)
	}
	if len(set) == 0 {
		t.Fatal("empty MIS on a nonempty graph")
	}
}

func TestPublicAPIAllProcesses(t *testing.T) {
	g := ssmis.GnpAvgDegree(200, 8, 3)
	procs := []ssmis.Process{
		ssmis.NewTwoState(g, ssmis.WithSeed(1)),
		ssmis.NewThreeState(g, ssmis.WithSeed(1)),
		ssmis.NewThreeColor(g, ssmis.WithSeed(1)),
	}
	for _, p := range procs {
		res := ssmis.Run(p, 0)
		if !res.Stabilized {
			t.Fatalf("%s did not stabilize", p.Name())
		}
		if err := ssmis.VerifyMIS(g, ssmis.BlackSet(p)); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
	}
}

func TestPublicAPIGraphConstructors(t *testing.T) {
	cases := []struct {
		name string
		g    *ssmis.Graph
		n, m int
	}{
		{"complete", ssmis.Complete(5), 5, 10},
		{"path", ssmis.Path(5), 5, 4},
		{"cycle", ssmis.Cycle(5), 5, 5},
		{"star", ssmis.Star(5), 5, 4},
		{"grid", ssmis.Grid(2, 3), 6, 7},
		{"cliques", ssmis.DisjointCliques(2, 3), 6, 6},
		{"edges", ssmis.FromEdges(3, [][2]int{{0, 1}}), 3, 1},
	}
	for _, c := range cases {
		if c.g.N() != c.n || c.g.M() != c.m {
			t.Errorf("%s: n=%d m=%d, want %d, %d", c.name, c.g.N(), c.g.M(), c.n, c.m)
		}
	}
	if g := ssmis.RandomTree(50, 1); g.M() != 49 {
		t.Error("RandomTree wrong")
	}
	if g := ssmis.RandomRegular(20, 4, 1); g.N() != 20 {
		t.Error("RandomRegular wrong")
	}
	b := ssmis.NewGraphBuilder(4)
	b.AddEdge(0, 3)
	if g := b.Build(); g.M() != 1 {
		t.Error("GraphBuilder wrong")
	}
}

func TestPublicAPIBeepingRuntime(t *testing.T) {
	g := ssmis.Cycle(21)
	m := ssmis.NewBeepingMIS(g, 5, nil)
	defer m.Close()
	if _, ok := m.Run(100000); !ok {
		t.Fatal("beeping runtime did not stabilize")
	}
	var set []int
	for u := 0; u < g.N(); u++ {
		if m.Black(u) {
			set = append(set, u)
		}
	}
	if err := ssmis.VerifyMIS(g, set); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIStoneAgeRuntimes(t *testing.T) {
	g := ssmis.GnpAvgDegree(100, 6, 9)
	s3 := ssmis.NewStoneAgeThreeState(g, 2)
	if _, ok := s3.Run(100000); !ok {
		t.Fatal("stone-age 3-state did not stabilize")
	}
	s3.Close()
	sc := ssmis.NewStoneAgeThreeColor(g, 2)
	if _, ok := sc.Run(100000); !ok {
		t.Fatal("stone-age 3-color did not stabilize")
	}
	sc.Close()
}

func TestPublicAPIVerifyRejectsBadSets(t *testing.T) {
	g := ssmis.Path(4)
	if err := ssmis.VerifyMIS(g, []int{0, 1}); err == nil {
		t.Fatal("adjacent pair accepted")
	}
	if err := ssmis.VerifyMIS(g, []int{0}); err == nil {
		t.Fatal("non-maximal set accepted")
	}
	if err := ssmis.VerifyMIS(g, []int{0, 2}); err != nil {
		t.Fatalf("valid MIS rejected: %v", err)
	}
}

func TestPublicAPIExperimentRegistry(t *testing.T) {
	exps := ssmis.Experiments()
	if len(exps) != 19 {
		t.Fatalf("%d experiments, want 19", len(exps))
	}
	if _, ok := ssmis.ExperimentByID("E1"); !ok {
		t.Fatal("E1 missing")
	}
	if cfg := ssmis.FullExperimentConfig(); cfg.Scale != 1 {
		t.Fatal("full config scale wrong")
	}
	if cfg := ssmis.QuickExperimentConfig(); cfg.Scale >= 1 {
		t.Fatal("quick config not reduced")
	}
}

func TestPublicAPIInitAdversaries(t *testing.T) {
	g := ssmis.Complete(32)
	for _, init := range []ssmis.Init{ssmis.InitRandom, ssmis.InitAllWhite,
		ssmis.InitAllBlack, ssmis.InitCheckerboard, ssmis.InitNearMIS} {
		p := ssmis.NewTwoState(g, ssmis.WithSeed(4), ssmis.WithInit(init))
		if !ssmis.Run(p, 0).Stabilized {
			t.Fatalf("init %v did not stabilize", init)
		}
	}
	mask := make([]bool, 32)
	mask[0] = true
	p := ssmis.NewTwoState(g, ssmis.WithInitialBlack(mask))
	if !p.Stabilized() {
		t.Fatal("explicit MIS mask should be immediately stable on a clique")
	}
}

func TestPublicAPIChurnAndRebind(t *testing.T) {
	g := ssmis.GnpAvgDegree(300, 8, 13)
	p := ssmis.NewTwoState(g, ssmis.WithSeed(2))
	if !ssmis.Run(p, 0).Stabilized {
		t.Fatal("no stabilization")
	}
	g2, toggles := ssmis.Churn(g, 10, 5)
	if len(toggles) != 10 {
		t.Fatalf("%d toggles", len(toggles))
	}
	p.Rebind(g2)
	if !ssmis.Run(p, 0).Stabilized {
		t.Fatal("no re-stabilization")
	}
	if err := ssmis.VerifyMIS(g2, ssmis.BlackSet(p)); err != nil {
		t.Fatal(err)
	}
	g3 := ssmis.ToggleEdge(g2, 0, 1)
	if g3.HasEdge(0, 1) == g2.HasEdge(0, 1) {
		t.Fatal("ToggleEdge did not toggle")
	}
}

// The deprecated WithWorkers option changes nothing: on all three processes
// a run with WithWorkers(8) is byte-identical to a run without it, and a
// negative count still panics.
func TestPublicAPIParallelWorkers(t *testing.T) {
	g := ssmis.GnpAvgDegree(400, 8, 17)
	procs := map[string]func(opts ...ssmis.Option) ssmis.Process{
		"2-state": func(opts ...ssmis.Option) ssmis.Process { return ssmis.NewTwoState(g, opts...) },
		"3-state": func(opts ...ssmis.Option) ssmis.Process { return ssmis.NewThreeState(g, opts...) },
		"3-color": func(opts ...ssmis.Option) ssmis.Process { return ssmis.NewThreeColor(g, opts...) },
	}
	for name, mk := range procs {
		plain, opted := mk(ssmis.WithSeed(3)), mk(ssmis.WithSeed(3), ssmis.WithWorkers(8))
		if a, b := ssmis.Run(plain, 0), ssmis.Run(opted, 0); a != b {
			t.Fatalf("%s: WithWorkers(8) run %+v, plain run %+v", name, b, a)
		}
		if !slices.Equal(ssmis.BlackSet(plain), ssmis.BlackSet(opted)) {
			t.Fatalf("%s: WithWorkers(8) changed the final black set", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("WithWorkers(-1) did not panic")
		}
	}()
	ssmis.WithWorkers(-1)
}

func TestPublicAPIChungLu(t *testing.T) {
	g := ssmis.ChungLu(500, 2.4, 8, 21)
	if g.N() != 500 {
		t.Fatal("ChungLu wrong order")
	}
	p := ssmis.NewTwoState(g, ssmis.WithSeed(4))
	if !ssmis.Run(p, 0).Stabilized {
		t.Fatal("no stabilization on power-law graph")
	}
	if err := ssmis.VerifyMIS(g, ssmis.BlackSet(p)); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIRunSeeds(t *testing.T) {
	g := ssmis.Complete(128)
	sum := ssmis.RunSeeds(func(seed uint64) ssmis.Process {
		return ssmis.NewTwoState(g, ssmis.WithSeed(seed))
	}, ssmis.Seeds(1, 40), 0, 0)
	if sum.Trials != 40 || sum.Failures != 0 || sum.FailedSeeds != nil {
		t.Fatalf("trials=%d failures=%d failedSeeds=%v", sum.Trials, sum.Failures, sum.FailedSeeds)
	}
	if sum.MeanRounds <= 0 || sum.MaxRounds < sum.MeanRounds || sum.MeanRandomBits <= 0 {
		t.Fatalf("bad summary: %+v", sum)
	}
	// Deterministic: same seeds, same summary, at any worker count.
	again := ssmis.RunSeeds(func(seed uint64) ssmis.Process {
		return ssmis.NewTwoState(g, ssmis.WithSeed(seed))
	}, ssmis.Seeds(1, 40), 0, 4)
	if !reflect.DeepEqual(sum, again) {
		t.Fatalf("RunSeeds not deterministic: %+v vs %+v", sum, again)
	}
}

func TestPublicAPIRunSeedsFailedSeeds(t *testing.T) {
	// A 1-round cap on a graph with edges cannot stabilize from all-black:
	// every seed fails, and the summary must name each one.
	g := ssmis.Complete(32)
	sum := ssmis.RunSeeds(func(seed uint64) ssmis.Process {
		return ssmis.NewTwoState(g, ssmis.WithSeed(seed), ssmis.WithInit(ssmis.InitAllBlack))
	}, ssmis.Seeds(5, 4), 1, 2)
	if sum.Failures != 4 {
		t.Fatalf("failures=%d, want 4", sum.Failures)
	}
	if !reflect.DeepEqual(sum.FailedSeeds, []uint64{5, 6, 7, 8}) {
		t.Fatalf("FailedSeeds=%v, want the submitted seeds in order", sum.FailedSeeds)
	}
}

func TestPublicAPISeeds(t *testing.T) {
	s := ssmis.Seeds(10, 3)
	if len(s) != 3 || s[0] != 10 || s[2] != 12 {
		t.Fatalf("Seeds = %v", s)
	}
}

func TestPublicAPICheckpointRoundTrip(t *testing.T) {
	g := ssmis.GnpAvgDegree(200, 8, 31)
	p := ssmis.NewTwoState(g, ssmis.WithSeed(5))
	p.Step()
	cp, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := ssmis.DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ssmis.RestoreTwoState(g, decoded)
	if err != nil {
		t.Fatal(err)
	}
	rp, rq := ssmis.Run(p, 0), ssmis.Run(q, 0)
	if rp != rq {
		t.Fatalf("restored run differs: %+v vs %+v", rp, rq)
	}
}

func TestPublicAPIBlackBias(t *testing.T) {
	g := ssmis.GnpAvgDegree(200, 8, 11)
	p := ssmis.NewTwoState(g, ssmis.WithSeed(6), ssmis.WithBlackBias(0.3))
	if !ssmis.Run(p, 0).Stabilized {
		t.Fatal("biased process did not stabilize")
	}
	if err := ssmis.VerifyMIS(g, ssmis.BlackSet(p)); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIDaemonSchedules(t *testing.T) {
	g := ssmis.GnpAvgDegree(300, 8, 44)
	for _, name := range ssmis.DaemonNames() {
		d, err := ssmis.DaemonByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := ssmis.NewTwoState(g, ssmis.WithSeed(9))
		steps, ok := p.DaemonRun(d, 0)
		if !ok {
			t.Fatalf("2-state under %s: no stabilization in %d steps", name, steps)
		}
		if err := ssmis.VerifyMIS(g, ssmis.BlackSet(p)); err != nil {
			t.Fatalf("2-state under %s: %v", name, err)
		}
		if p.Moves() == 0 || p.Steps() != steps {
			t.Fatalf("2-state under %s: accounting moves=%d steps=%d/%d",
				name, p.Moves(), p.Steps(), steps)
		}
	}
	if _, err := ssmis.DaemonByName("bogus"); err == nil {
		t.Fatal("bogus daemon accepted")
	}
}
