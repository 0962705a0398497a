package batch

import (
	"sync"
	"sync/atomic"
	"testing"

	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/mis"
	"ssmis/internal/stats"
	"ssmis/internal/xrand"
)

// misShards builds a realistic mixed workload: two fixed-graph shards (one
// sparse G(n,p), one clique) plus one shard whose runner builds a per-seed
// graph — the three shapes the experiment harness submits.
func misShards(seedsPerShard int) []Shard {
	seeds := func(base uint64) []uint64 {
		out := make([]uint64, seedsPerShard)
		for i := range out {
			out[i] = base + uint64(i)
		}
		return out
	}
	run := func(rc *engine.RunContext, g *graph.Graph, _ int, seed uint64) Outcome {
		if g == nil {
			g = graph.GnpAvgDegree(120, 6, xrand.New(seed))
		}
		p := mis.NewTwoState(g, mis.WithRunContext(rc), mis.WithSeed(seed))
		res := mis.Run(p, mis.DefaultRoundCap(g.N()))
		if !res.Stabilized {
			return Outcome{Failed: true}
		}
		return Outcome{Rounds: res.Rounds, Bits: res.RandomBits}
	}
	return []Shard{
		{Build: func() *graph.Graph { return graph.Gnp(200, 0.03, xrand.New(1)) }, Seeds: seeds(100), Run: run},
		{Build: func() *graph.Graph { return graph.Complete(64) }, Seeds: seeds(500), Run: run},
		{Seeds: seeds(900), Run: run}, // per-seed graphs
	}
}

// collect runs the workload on a fresh pool and returns the in-order
// outcome log plus a streamed summary.
func collect(t *testing.T, workers int, opt SubmitOptions, seedsPerShard int) ([]Outcome, stats.Summary, uint64) {
	t.Helper()
	p := NewPool(workers)
	defer p.Close()
	var log []Outcome
	rounds := stats.NewQuantileStream()
	b := p.SubmitOpts(misShards(seedsPerShard), opt, func(o Outcome) {
		log = append(log, o)
		if !o.Failed && !o.Broken {
			rounds.Add(float64(o.Rounds))
		}
	})
	b.Wait()
	if rounds.N() == 0 {
		t.Fatal("no successful runs")
	}
	return log, rounds.Summary(), p.Steals()
}

// The same job set must produce bit-identical outcome sequences and
// summaries at workers=1, workers=8, and under forced steals (every chunk
// pinned to worker 0 with chunk size 1, so 7 workers only ever steal).
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	const seeds = 12
	ref, refSum, _ := collect(t, 1, SubmitOptions{}, seeds)
	w8, w8Sum, _ := collect(t, 8, SubmitOptions{}, seeds)
	stolen, stSum, steals := collect(t, 8, SubmitOptions{ChunkSize: 1, PinFirst: true}, seeds)
	if steals == 0 {
		t.Fatal("forced-steal schedule recorded no steals")
	}
	for name, got := range map[string][]Outcome{"workers=8": w8, "forced-steals": stolen} {
		if len(got) != len(ref) {
			t.Fatalf("%s: %d outcomes, want %d", name, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s: outcome %d = %+v, want %+v", name, i, got[i], ref[i])
			}
		}
	}
	if refSum != w8Sum || refSum != stSum {
		t.Fatalf("summaries differ:\n w1=%+v\n w8=%+v\n steal=%+v", refSum, w8Sum, stSum)
	}
}

// Outcomes must arrive at the sink in job order with Index/Seed stamped.
func TestInOrderDelivery(t *testing.T) {
	ref, _, _ := collect(t, 4, SubmitOptions{ChunkSize: 1}, 9)
	for i, o := range ref {
		if o.Index != i {
			t.Fatalf("outcome %d has Index %d", i, o.Index)
		}
	}
	// Shard boundaries: seeds restate their shard's seed list.
	if ref[0].Seed != 100 || ref[9].Seed != 500 || ref[18].Seed != 900 {
		t.Fatalf("seed stamping wrong: %d %d %d", ref[0].Seed, ref[9].Seed, ref[18].Seed)
	}
}

// A shard's graph is built exactly once no matter how many workers run its
// seeds, and every runner sees the same pointer.
func TestShardGraphBuiltOnce(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	var builds int64
	var mu sync.Mutex
	seen := map[*graph.Graph]bool{}
	g0 := graph.Complete(32)
	sh := Shard{
		Build: func() *graph.Graph { atomic.AddInt64(&builds, 1); return g0 },
		Seeds: make([]uint64, 64),
		Run: func(_ *engine.RunContext, g *graph.Graph, i int, _ uint64) Outcome {
			mu.Lock()
			seen[g] = true
			mu.Unlock()
			return Outcome{Rounds: i}
		},
	}
	p.SubmitOpts([]Shard{sh}, SubmitOptions{ChunkSize: 1}, nil).Wait()
	if builds != 1 {
		t.Fatalf("Build called %d times", builds)
	}
	if len(seen) != 1 || !seen[g0] {
		t.Fatalf("runners saw %d graphs", len(seen))
	}
}

// Concurrent batches from many goroutines (the missweep cross-experiment
// pattern) must each complete with their own in-order streams.
func TestConcurrentBatches(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	for b := 0; b < 6; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			want := 0
			sh := Shard{
				Seeds: make([]uint64, 40),
				Run: func(_ *engine.RunContext, _ *graph.Graph, i int, _ uint64) Outcome {
					return Outcome{Rounds: b*1000 + i}
				},
			}
			p.SubmitOpts([]Shard{sh}, SubmitOptions{ChunkSize: 3}, func(o Outcome) {
				if o.Rounds != b*1000+want {
					t.Errorf("batch %d: outcome %d out of order", b, o.Rounds)
				}
				want++
			}).Wait()
			if want != 40 {
				t.Errorf("batch %d delivered %d outcomes", b, want)
			}
		}(b)
	}
	wg.Wait()
}

func TestEmptyBatchAndClose(t *testing.T) {
	p := NewPool(2)
	p.Submit(nil, nil).Wait() // must not hang
	p.Submit([]Shard{{Seeds: nil}}, nil).Wait()
	if p.Workers() != 2 {
		t.Fatal("worker count wrong")
	}
	p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Submit after Close did not panic")
		}
	}()
	p.Submit(nil, nil)
}

// A batch resumed from a recorded outcome prefix must feed its sink the
// exact sequence an uninterrupted batch feeds it — replayed jobs are never
// re-run, live jobs start where the journal ends — at any worker count and
// for any cut point, including mid-shard and whole-batch prefixes.
func TestReplayPrefixMatchesUninterrupted(t *testing.T) {
	const seeds = 4 // 12 jobs across the three shards
	ref, refSum, _ := collect(t, 1, SubmitOptions{}, seeds)
	for _, cut := range []int{0, 1, 5, 7, len(ref) - 1, len(ref)} {
		for _, workers := range []int{1, 8} {
			p := NewPool(workers)
			var scheduled int64
			shards := misShards(seeds)
			for i := range shards {
				inner := shards[i].Run
				shards[i].Run = func(rc *engine.RunContext, g *graph.Graph, j int, seed uint64) Outcome {
					atomic.AddInt64(&scheduled, 1)
					return inner(rc, g, j, seed)
				}
			}
			var log []Outcome
			rounds := stats.NewQuantileStream()
			p.SubmitOpts(shards, SubmitOptions{Replay: ref[:cut]}, func(o Outcome) {
				log = append(log, o)
				if !o.Failed && !o.Broken {
					rounds.Add(float64(o.Rounds))
				}
			}).Wait()
			p.Close()
			if got := int(atomic.LoadInt64(&scheduled)); got != len(ref)-cut {
				t.Fatalf("cut %d workers %d: ran %d jobs, want %d", cut, workers, got, len(ref)-cut)
			}
			if len(log) != len(ref) {
				t.Fatalf("cut %d workers %d: %d outcomes, want %d", cut, workers, len(log), len(ref))
			}
			for i := range ref {
				if log[i] != ref[i] {
					t.Fatalf("cut %d workers %d: outcome %d = %+v, want %+v", cut, workers, i, log[i], ref[i])
				}
			}
			if rounds.Summary() != refSum {
				t.Fatalf("cut %d workers %d: summary diverged", cut, workers)
			}
		}
	}
}

// Record must observe every delivery in order — replayed and live alike —
// so a journal written by Record is itself a valid Replay prefix.
func TestRecordJournalsEveryDelivery(t *testing.T) {
	const seeds = 3
	ref, _, _ := collect(t, 2, SubmitOptions{}, seeds)
	cut := len(ref) / 2
	p := NewPool(4)
	defer p.Close()
	var journal []Outcome
	p.SubmitOpts(misShards(seeds), SubmitOptions{
		Replay: ref[:cut],
		Record: func(o Outcome) { journal = append(journal, o) },
	}, nil).Wait()
	if len(journal) != len(ref) {
		t.Fatalf("journal has %d entries, want %d", len(journal), len(ref))
	}
	for i := range ref {
		if journal[i] != ref[i] {
			t.Fatalf("journal entry %d = %+v, want %+v", i, journal[i], ref[i])
		}
	}
}

// Replay prefixes longer than the batch are a caller bug and must panic.
// A negative worker count is a caller bug (mis.WithWorkers panics on it
// too); it must not be silently coerced to GOMAXPROCS.
func TestNegativeWorkersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool(-1) did not panic")
		}
	}()
	NewPool(-1)
}

func TestReplayPrefixTooLongPanics(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("oversized replay prefix did not panic")
		}
	}()
	p.SubmitOpts([]Shard{{Seeds: make([]uint64, 1), Run: func(*engine.RunContext, *graph.Graph, int, uint64) Outcome {
		return Outcome{}
	}}}, SubmitOptions{Replay: make([]Outcome, 2)}, nil)
}

// Quiesce must return only once no chunk is executing, freeze all delivery
// until Resume, and leave queued work intact: the batch then completes with
// the full in-order outcome sequence.
func TestQuiesceFreezesDelivery(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var delivered int64
	release := make(chan struct{})
	started := make(chan struct{}, 256)
	sh := Shard{
		Seeds: make([]uint64, 64),
		Run: func(_ *engine.RunContext, _ *graph.Graph, i int, _ uint64) Outcome {
			started <- struct{}{}
			if i == 0 {
				<-release // hold the first chunk in flight while we quiesce
			}
			return Outcome{Rounds: i}
		},
	}
	b := p.SubmitOpts([]Shard{sh}, SubmitOptions{ChunkSize: 1}, func(o Outcome) {
		atomic.AddInt64(&delivered, 1)
	})
	<-started // job 0 is in flight
	done := make(chan struct{})
	go func() { p.Quiesce(); close(done) }()
	select {
	case <-done:
		t.Fatal("Quiesce returned while a job was still in flight")
	default:
	}
	close(release)
	<-done
	frozen := atomic.LoadInt64(&delivered)
	// No deliveries while quiesced (the consistent cut the checkpointer
	// serializes under).
	for i := 0; i < 50; i++ {
		if got := atomic.LoadInt64(&delivered); got != frozen {
			t.Fatalf("delivery advanced from %d to %d during quiesce", frozen, got)
		}
	}
	p.Resume()
	b.Wait()
	if got := atomic.LoadInt64(&delivered); got != 64 {
		t.Fatalf("delivered %d outcomes after resume, want 64", got)
	}
}

// Quiesce on an idle pool is a no-op, and repeated Quiesce/Resume cycles
// across batches keep the pool fully functional.
func TestQuiesceIdleAndRepeated(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	p.Quiesce()
	p.Quiesce() // idempotent
	p.Resume()
	for round := 0; round < 3; round++ {
		count := 0
		sh := Shard{Seeds: make([]uint64, 16), Run: func(_ *engine.RunContext, _ *graph.Graph, i int, _ uint64) Outcome {
			return Outcome{Rounds: i}
		}}
		b := p.SubmitOpts([]Shard{sh}, SubmitOptions{ChunkSize: 4}, func(Outcome) { count++ })
		b.Wait()
		if count != 16 {
			t.Fatalf("round %d delivered %d", round, count)
		}
		p.Quiesce()
		p.Resume()
	}
}
