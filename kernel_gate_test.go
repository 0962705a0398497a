package ssmis_test

// Kernel speed gate: the bit-sliced kernels against the scalar interface
// path, one row pair per kernel rule — 2-state and 3-state on the
// BenchmarkEngineFrontierGnp1M workload (3-color has no kernel; its pair
// is the event-driven phase clock against the full-sweep rule, below).
// Each pair runs coin-for-coin identical executions (same seeds, same
// rounds, same terminal MIS), so the wall-clock ratio is a pure
// execution-path comparison — a benchstat-style before/after with the noise
// of differing work removed by construction. Shared-runner noise is purely
// additive (scheduler steal inflates a run, never deflates it), so each
// (path, seed) records the minimum of a few repetitions, with the two
// paths interleaved per seed in alternating order so drift cancels. CI
// runs this on the 1-CPU runner and fails the build if a gated rule is not
// at least its minimum-speedup factor faster: 1.2x for both the 2-state
// XOR-flip fast path and the generic two-lane 3-state path. The
// measurement JSON lands in the file named by BENCH_KERNEL_OUT (skipped
// when unset, so ordinary `go test ./...` never pays the n=10^6 runs).
//
// Regenerate with:
//
//	BENCH_KERNEL_OUT=$PWD/BENCH_kernel.json go test -run TestKernelSpeedupGate .

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"ssmis"
	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/mis"
	"ssmis/internal/phaseclock"
	"ssmis/internal/xrand"
)

// Both kernel gates sit ~7-15% under the measured min-based speedups
// (2-state ~1.28x, 3-state ~1.35x), so they catch real regressions without
// flaking on residual noise. The 2-state gate was 1.3 when the measurement
// was a plain mean: additive scheduler steal inflates the longer scalar runs
// more, which read as ~1.4x; the min-of-reps methodology removes that
// flattery and reads ~1.28x for the identical binary. The phase-clock gate
// sits at about half of what the event-driven clock measures against the
// full sweep (18.6-20.2x over three runs on a 2-CPU Xeon since candidates
// read a per-vertex neighborhood-max summary; 9.8x before it).
const (
	minKernelSpeedup       = 1.2  // 2-state, the XOR-flip fast path
	minKernelSpeedup3State = 1.2  // 3-state, the coin-constant two-lane path
	minClockSpeedup        = 10.0 // event-driven phase clock vs the full sweep
)

// sweepClock is the phase-clock rule as the verbatim full sweep the
// event-driven phaseclock.Clock replaced: every vertex, every round, reads
// its closed-neighborhood max into a second level array. It is the
// baseline of the phase-clock row pair.
type sweepClock struct {
	g            *graph.Graph
	top          uint8
	levels, next []uint8
	rngs         []*xrand.Rand
	bits         int64
}

func (c *sweepClock) step() {
	for u, l := range c.levels {
		stayTop := false
		if l == c.top {
			stayTop = !c.rngs[u].BernoulliPow2(phaseclock.DefaultZetaLog2)
			c.bits += phaseclock.DefaultZetaLog2
		}
		if stayTop || l == 0 {
			c.next[u] = c.top
			continue
		}
		m := l
		for _, v := range c.g.Neighbors(u) {
			if c.levels[v] > m {
				m = c.levels[v]
			}
		}
		c.next[u] = m - 1
	}
	c.levels, c.next = c.next, c.levels
}

func TestKernelSpeedupGate(t *testing.T) {
	outPath := os.Getenv("BENCH_KERNEL_OUT")
	if outPath == "" {
		t.Skip("BENCH_KERNEL_OUT not set")
	}
	g1m := ssmis.GnpAvgDegree(1000000, 10, 7)
	g100k := ssmis.GnpAvgDegree(100000, 10, 7)
	const seeds = 5

	rules := []struct {
		name string
		slug string
		g    *ssmis.Graph
		mk   func(g *ssmis.Graph, opts ...ssmis.Option) ssmis.Process
		gate float64 // 0 = record only
		reps int     // min-of-reps per (path, seed); see the noise note below
	}{
		{"2-state", "frontier_gnp1m", g1m,
			func(g *ssmis.Graph, opts ...ssmis.Option) ssmis.Process { return ssmis.NewTwoState(g, opts...) },
			minKernelSpeedup, 3},
		{"3-state", "3state_gnp1m", g1m,
			func(g *ssmis.Graph, opts ...ssmis.Option) ssmis.Process { return ssmis.NewThreeState(g, opts...) },
			minKernelSpeedup3State, 2},
	}

	type row struct {
		Name     string `json:"name"`
		NsPerRun int64  `json:"ns_per_run"`
	}
	var rows []row
	speedups := map[string]float64{}
	gates := map[string]float64{}
	roundsTotal := map[string]int{}

	for _, rule := range rules {
		// Total time over a fixed seed set; both paths replay the exact same
		// executions, so the totals are directly comparable. Against the
		// shared runner's noise each (path, seed) takes the minimum of
		// rule.reps repetitions — scheduler steal only ever inflates a run,
		// so the min approaches the true time — with the two paths
		// interleaved in per-seed alternating order so drift hits both
		// totals symmetrically.
		pathOpts := [2][]ssmis.Option{{ssmis.WithScalarEngine()}, {}}
		var totals [2]time.Duration
		var rounds [2]int
		one := func(i int, seed uint64, countRounds bool) time.Duration {
			all := append([]ssmis.Option{ssmis.WithSeed(seed)}, pathOpts[i]...)
			start := time.Now()
			res := ssmis.Run(rule.mk(rule.g, all...), 0)
			d := time.Since(start)
			if !res.Stabilized {
				t.Fatalf("%s seed %d did not stabilize", rule.name, seed)
			}
			if countRounds {
				rounds[i] += res.Rounds
			}
			return d
		}
		// Warm-up both paths on a smaller instance (page-in, branch
		// predictors).
		ssmis.Run(rule.mk(g100k, ssmis.WithScalarEngine()), 0)
		ssmis.Run(rule.mk(g100k), 0)

		for seed := uint64(0); seed < seeds; seed++ {
			mins := [2]time.Duration{1 << 62, 1 << 62}
			for rep := 0; rep < rule.reps; rep++ {
				for _, i := range [2]int{int(seed) % 2, 1 - int(seed)%2} {
					if d := one(i, seed, rep == 0); d < mins[i] {
						mins[i] = d
					}
				}
			}
			totals[0] += mins[0]
			totals[1] += mins[1]
		}
		scalarNs, scalarRounds := totals[0], rounds[0]
		kernelNs, kernelRounds := totals[1], rounds[1]
		if scalarRounds != kernelRounds {
			t.Fatalf("%s paths diverged: scalar %d rounds, kernel %d rounds",
				rule.name, scalarRounds, kernelRounds)
		}
		speedup := float64(scalarNs.Nanoseconds()) / float64(kernelNs.Nanoseconds())
		rows = append(rows,
			row{Name: "scalar_" + rule.slug, NsPerRun: scalarNs.Nanoseconds() / seeds},
			row{Name: "kernel_" + rule.slug, NsPerRun: kernelNs.Nanoseconds() / seeds})
		speedups[rule.name] = speedup
		roundsTotal[rule.name] = kernelRounds
		if rule.gate > 0 {
			gates[rule.name] = rule.gate
		}
		t.Logf("%s: scalar %v, kernel %v, speedup %.2fx", rule.name, scalarNs, kernelNs, speedup)
	}

	// Phase-clock row pair: the full-sweep clock rule (sweepClock) against
	// the event-driven phaseclock.Standalone on G(n=10^5, avg degree 10)
	// for a fixed 1200 rounds — about one 3-color run at this size. Both replay the same levels and coins
	// from the same streams (checked on random bits and the final levels),
	// so the ratio is pure clock speed. Construction is outside the timed
	// window. Min of 3 interleaved repetitions per (path, seed).
	{
		const clockSeeds = 5
		const clockReps = 3
		const clockRounds = 1200
		n := g100k.N()
		one := func(i int, seed uint64) time.Duration {
			s := phaseclock.NewStandalone(g100k, seed)
			if i == 1 {
				start := time.Now()
				for r := 0; r < clockRounds; r++ {
					s.Step()
				}
				return time.Since(start)
			}
			// The baseline replays NewStandalone's streams and levels.
			master := xrand.New(seed)
			ref := &sweepClock{g: g100k, top: s.Top(), levels: make([]uint8, n), next: make([]uint8, n),
				rngs: make([]*xrand.Rand, n)}
			for u := 0; u < n; u++ {
				ref.levels[u] = s.Level(u)
				ref.rngs[u] = master.Split(uint64(u))
			}
			start := time.Now()
			for r := 0; r < clockRounds; r++ {
				ref.step()
			}
			d := time.Since(start)
			for r := 0; r < clockRounds; r++ {
				s.Step()
			}
			if s.RandomBits() != ref.bits {
				t.Fatalf("phase clock seed %d: event-driven bits %d, full sweep %d", seed, s.RandomBits(), ref.bits)
			}
			for u := 0; u < n; u++ {
				if s.Level(u) != ref.levels[u] {
					t.Fatalf("phase clock seed %d: level of %d diverged", seed, u)
				}
			}
			return d
		}
		var totals [2]time.Duration
		for seed := uint64(0); seed < clockSeeds; seed++ {
			mins := [2]time.Duration{1 << 62, 1 << 62}
			for rep := 0; rep < clockReps; rep++ {
				for _, i := range [2]int{int(seed) % 2, 1 - int(seed)%2} {
					if d := one(i, seed); d < mins[i] {
						mins[i] = d
					}
				}
			}
			totals[0] += mins[0]
			totals[1] += mins[1]
		}
		speedup := float64(totals[0].Nanoseconds()) / float64(totals[1].Nanoseconds())
		rows = append(rows,
			row{Name: "fullsweep_phaseclock_gnp100k", NsPerRun: totals[0].Nanoseconds() / clockSeeds},
			row{Name: "eventdriven_phaseclock_gnp100k", NsPerRun: totals[1].Nanoseconds() / clockSeeds})
		speedups["phaseclock"] = speedup
		gates["phaseclock"] = minClockSpeedup
		roundsTotal["phaseclock"] = clockRounds * clockSeeds
		t.Logf("phaseclock: full sweep %v, event-driven %v, speedup %.2fx", totals[0], totals[1], speedup)
	}

	// Locality-relabeling row pair: the kernel with and without the
	// degree-bucketed vertex ordering on a SCRAMBLED heavy-tailed Chung-Lu
	// graph at n = 10^6. The repo's generators emit weight-sorted ids —
	// hubs already packed at the front, the layout the relabeling would
	// construct — so the natural instance gives the reorder nothing to win;
	// a fixed random permutation of the ids models the arrival order of
	// real-world graphs, where hub counter words are scattered across the
	// address space. Both executions are graph isomorphisms of each other
	// (identical seeds, rounds, coins), so the ratio isolates cache
	// behavior. Each path measures under a shared run context with a
	// warm-up run excluded, so the ordering is computed once and memoized —
	// exactly the regime the auto policy engages it in (batch workers
	// amortize one ordering across thousands of seeds). Against the shared
	// runner's noise the measurement takes the minimum of 3 repetitions per
	// (path, seed) — scheduler steal only ever inflates a run, so the min
	// approaches the true time — with the two paths interleaved so drift
	// hits both symmetrically. Gated at 1.0x — the steady-state relabeling
	// must never lose — with >= 1.1x the measured win on this workload.
	cl1m := ssmis.ChungLu(1000000, 2.5, 10, 7)
	scrambled := func() *ssmis.Graph {
		rng := xrand.New(1234)
		perm := make([]int32, cl1m.N())
		for i := range perm {
			perm[i] = int32(i)
		}
		for i := len(perm) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		return graph.Relabel(cl1m, perm)
	}()
	{
		const localitySeeds = 5
		const localityReps = 3
		paths := []struct {
			opt    ssmis.Option
			ctx    *engine.RunContext
			total  time.Duration
			rounds int
		}{
			{opt: ssmis.WithIdentityOrder(), ctx: engine.NewRunContext()},
			{opt: ssmis.WithDegreeOrder(), ctx: engine.NewRunContext()},
		}
		one := func(i int, seed uint64) time.Duration {
			p := &paths[i]
			start := time.Now()
			res := ssmis.Run(ssmis.NewTwoState(scrambled,
				ssmis.WithSeed(seed), p.opt, mis.WithRunContext(p.ctx)), 0)
			d := time.Since(start)
			if !res.Stabilized {
				t.Fatalf("chunglu1m seed %d did not stabilize", seed)
			}
			p.rounds += res.Rounds
			return d
		}
		for i := range paths {
			one(i, 99) // warm-up: pages the graph in, memoizes the ordering
		}
		for i := range paths {
			paths[i].rounds = 0
		}
		for seed := uint64(0); seed < localitySeeds; seed++ {
			mins := [2]time.Duration{1 << 62, 1 << 62}
			rounds0 := [2]int{paths[0].rounds, paths[1].rounds}
			for rep := 0; rep < localityReps; rep++ {
				for _, i := range []int{int(seed) % 2, 1 - int(seed)%2} {
					paths[i].rounds = rounds0[i] // reps replay the same rounds
					if d := one(i, seed); d < mins[i] {
						mins[i] = d
					}
				}
			}
			paths[0].total += mins[0]
			paths[1].total += mins[1]
		}
		identNs, identRounds := paths[0].total, paths[0].rounds
		localNs, localRounds := paths[1].total, paths[1].rounds
		if identRounds != localRounds {
			t.Fatalf("orderings diverged: identity %d rounds, locality %d rounds",
				identRounds, localRounds)
		}
		speedup := float64(identNs.Nanoseconds()) / float64(localNs.Nanoseconds())
		rows = append(rows,
			row{Name: "kernel_identity_chunglu1m_scrambled", NsPerRun: identNs.Nanoseconds() / localitySeeds},
			row{Name: "kernel_locality_chunglu1m_scrambled", NsPerRun: localNs.Nanoseconds() / localitySeeds})
		speedups["locality"] = speedup
		gates["locality"] = 1.0
		roundsTotal["locality"] = localRounds
		t.Logf("locality: identity %v, relabeled %v, speedup %.2fx", identNs, localNs, speedup)
	}

	// Counter-plane row pairs: the flat full-width int32 counter arrays
	// against the auto-resolved plane on the same execution — identical
	// seeds, rounds, and coins, so the ratio isolates counter storage.
	// On the scrambled Chung-Lu graph under the degree-bucketed relabeling
	// the hubs are packed first and the plane resolves to the hub/tail
	// split (cache-resident hub rows, byte-wide tail); gated at 1.1x, the
	// tentpole claim of the counter architecture. On G(n=10^6, avg degree
	// 10) — no hubs at all — the plane resolves to plain byte lanes, whose
	// win is the 4x shrink of the commit's scatter traffic; gated at 1.0x
	// (the narrow plane must never lose to flat). Methodology as above:
	// shared run contexts, a warm-up run excluded, min of 3 interleaved
	// repetitions per (path, seed).
	{
		const cSeeds = 5
		const cReps = 3
		pairs := []struct {
			key      string
			g        *ssmis.Graph
			extra    []ssmis.Option // shared by both paths
			slugFlat string
			slugAuto string
			gate     float64
			layout   ssmis.CounterLayout // expected auto resolution
		}{
			{"counters-split", scrambled, []ssmis.Option{ssmis.WithDegreeOrder()},
				"kernel_flat_chunglu1m_scrambled", "kernel_split_chunglu1m_scrambled",
				1.1, ssmis.CounterSplit},
			{"counters-narrow", g1m, nil,
				"kernel_flat_gnp1m", "kernel_narrow_gnp1m",
				1.0, ssmis.CounterNarrow},
		}
		for _, pc := range pairs {
			layouts := [2]ssmis.CounterLayout{ssmis.CounterFlat, ssmis.CounterAuto}
			ctxs := [2]*engine.RunContext{engine.NewRunContext(), engine.NewRunContext()}
			var totals [2]time.Duration
			var rounds [2]int
			one := func(i int, seed uint64, countRounds bool) time.Duration {
				opts := append([]ssmis.Option{ssmis.WithSeed(seed),
					ssmis.WithCounterLayout(layouts[i]), mis.WithRunContext(ctxs[i])}, pc.extra...)
				p := ssmis.NewTwoState(pc.g, opts...)
				if info := p.CounterPlane(); i == 1 && (info.Layout != pc.layout || info.WidthBits != 8) {
					t.Fatalf("%s: auto plane resolved %+v, want %v with byte tail", pc.key, info, pc.layout)
				}
				start := time.Now()
				res := ssmis.Run(p, 0)
				d := time.Since(start)
				if !res.Stabilized {
					t.Fatalf("%s seed %d did not stabilize", pc.key, seed)
				}
				if countRounds {
					rounds[i] += res.Rounds
				}
				return d
			}
			one(0, 99, false) // warm-up: pages the graph in, memoizes the ordering
			one(1, 99, false)
			for seed := uint64(0); seed < cSeeds; seed++ {
				mins := [2]time.Duration{1 << 62, 1 << 62}
				for rep := 0; rep < cReps; rep++ {
					for _, i := range [2]int{int(seed) % 2, 1 - int(seed)%2} {
						if d := one(i, seed, rep == 0); d < mins[i] {
							mins[i] = d
						}
					}
				}
				totals[0] += mins[0]
				totals[1] += mins[1]
			}
			if rounds[0] != rounds[1] {
				t.Fatalf("%s layouts diverged: flat %d rounds, auto %d rounds",
					pc.key, rounds[0], rounds[1])
			}
			speedup := float64(totals[0].Nanoseconds()) / float64(totals[1].Nanoseconds())
			rows = append(rows,
				row{Name: pc.slugFlat, NsPerRun: totals[0].Nanoseconds() / cSeeds},
				row{Name: pc.slugAuto, NsPerRun: totals[1].Nanoseconds() / cSeeds})
			speedups[pc.key] = speedup
			gates[pc.key] = pc.gate
			roundsTotal[pc.key] = rounds[1]
			t.Logf("%s: flat %v, auto %v, speedup %.2fx", pc.key, totals[0], totals[1], speedup)
		}
	}

	report := map[string]any{
		"description": "Bit-sliced kernels vs the scalar interface path (full time-to-stabilization including process construction; both paths replay identical executions), one scalar/kernel row pair per kernel rule. ns_per_run averages over seeds 0-4 the minimum of k interleaved repetitions per (path, seed) — k = 3 (2-state), 2 (3-state) — because shared-runner noise is additive and the min approaches the true time. 2-state and 3-state run the BenchmarkEngineFrontierGnp1M workload G(n=10^6, avg degree 10). Gates: 2-state >= 1.2x, 3-state >= 1.2x. 3-color has no kernel (it runs on the scalar path); its cost is the phase clock, so the phaseclock row pair times the verbatim full-sweep clock rule against the event-driven phaseclock.Standalone on G(n=10^5, avg degree 10) for a fixed 1200 rounds per seed (about one 3-color run at this size), construction excluded, the same levels and coins checked on both paths, min of 3 interleaved repetitions; gated at >= 10x. The locality row pair runs the 2-state kernel on a scrambled Chung-Lu(n=10^6, beta=2.5, avg degree 10) — ids randomly permuted, since the generator emits weight-sorted ids where hubs are already front-packed and the reorder has nothing to win — with and without the degree-bucketed vertex relabeling (identical executions up to isomorphism), each path under a shared run context with a warm-up excluded so the ordering is computed once and memoized (the steady-state regime the auto policy engages it in). Gated at >= 1.0x (must never lose). The counters-split row pair runs the same scrambled Chung-Lu instance under the relabeling with the counter plane forced flat vs auto-resolved (hub/tail split: dense int32 hub rows, byte-wide tail lanes) — identical executions, the ratio isolates counter storage; gated at >= 1.1x. The counters-narrow pair runs the 2-state kernel on the G(n=10^6, avg degree 10) instance, flat vs auto-resolved byte lanes (no hub prefix); gated at >= 1.0x (narrow must never lose). All pairs: min of interleaved repetitions per (path, seed), shared run contexts, warm-up excluded. Regenerate with: BENCH_KERNEL_OUT=$PWD/BENCH_kernel.json go test -run TestKernelSpeedupGate .",
		"environment": map[string]any{
			"goos":         runtime.GOOS,
			"goarch":       runtime.GOARCH,
			"logical_cpus": runtime.NumCPU(),
			"gomaxprocs":   runtime.GOMAXPROCS(0),
			"go":           runtime.Version(),
		},
		"results":      rows,
		"rounds_total": roundsTotal,
		"speedups":     speedups,
		"gates":        gates,
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, gate := range gates {
		if speedups[name] < gate {
			t.Errorf("%s kernel speedup %.2fx below the %.1fx gate on this runner",
				name, speedups[name], gate)
		}
	}
}
