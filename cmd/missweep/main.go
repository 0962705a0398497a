// Command missweep regenerates the paper-reproduction experiment tables.
//
// Usage:
//
//	missweep -run all                  # every experiment at full scale
//	missweep -run E1,E7 -scale 0.25
//	missweep -run all -workers 8       # one shared work-stealing pool, 8 workers
//	missweep -run E6 -batch 4 -times   # 4-seed scheduler chunks + per-cell wall times
//	missweep -list
//	missweep -run E9 -csv              # machine-readable output
//
//	missweep -run all -checkpoint sweep.ckpt                 # checkpoint the whole grid
//	missweep -run all -checkpoint sweep.ckpt -resume         # continue a killed sweep
//	missweep -run all -checkpoint sweep.ckpt -checkpoint-every 5s
//
//	missweep -scenario examples/scenarios/basic.json         # run a declarative scenario
//	missweep -scenario a.json,b.json -run E1 -scale 0.25     # scenarios mix with registry ids
//
// Declarative scenarios (-scenario) are JSON files compiled by
// internal/scenario into the same cell structure the registry experiments
// submit; they share the pool, the checkpoint journal (keyed by scenario
// name) and every output flag. -list prints the scenario vocabulary —
// graph families with their parameters, processes, runtimes, drift models,
// daemons, adversaries and metrics — after the experiment registry.
//
// All selected experiments submit their (graph, seed) jobs to ONE shared
// work-stealing pool (internal/batch) and run concurrently — a straggler
// cell in E7 no longer serializes the sweep, because E8's jobs fill the
// idle workers. Output order and table contents are independent of -workers
// (outcomes aggregate in trial order).
//
// Sweep checkpointing (-checkpoint) serializes the WHOLE grid to one
// versioned snapshot file at a configurable interval (-checkpoint-every,
// default 10s): completed experiments' rendered tables plus the in-order
// outcome journals of every in-flight measurement cell, written atomically
// (stage + rename) under a scheduler quiesce. A sweep killed mid-grid and
// restarted with -resume skips everything the checkpoint recorded — it
// replays journaled outcomes through the scheduler's reorder buffer rather
// than re-running them — and, because every trial is a pure function of
// (graph, seed), produces byte-identical tables to an uninterrupted run at
// any -workers value. -resume validates that the checkpoint matches the
// invocation (same -scale, -seed, and -run selection; intact envelope,
// same format version) and refuses to resume otherwise.
//
// Experiment ids and claims are listed by -list and indexed in DESIGN.md §3;
// the full-scale outputs are recorded in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ssmis/internal/batch"
	"ssmis/internal/experiment"
	"ssmis/internal/scenario"
	"ssmis/internal/snapshot"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		runIDs        = flag.String("run", "", "comma-separated experiment ids, or 'all'")
		scenFiles     = flag.String("scenario", "", "comma-separated scenario JSON files, compiled and run alongside -run")
		scale         = flag.Float64("scale", 1.0, "cost multiplier (sizes and trials); 0.25 = quick")
		seed          = flag.Uint64("seed", 2023, "master seed")
		list          = flag.Bool("list", false, "list experiments and exit")
		csv           = flag.Bool("csv", false, "emit CSV instead of fixed-width tables")
		outDir        = flag.String("out", "", "also write one CSV file per table into this directory")
		workers       = flag.Int("workers", 0, "scheduler pool size (0 = GOMAXPROCS); all experiments share one pool")
		chunk         = flag.Int("batch", 0, "seeds per scheduler chunk (0 = auto); smaller chunks steal more")
		times         = flag.Bool("times", false, "report the slowest per-cell wall times for each experiment")
		scalar        = flag.Bool("scalar", false, "force the scalar engine path (no bit-sliced kernels); tables are identical by construction")
		identityOrder = flag.Bool("identity-order", false, "disable the kernel path's locality relabeling; tables are identical by construction")
		ckpt          = flag.String("checkpoint", "", "checkpoint the whole sweep to this file (atomic write-rename)")
		every         = flag.Duration("checkpoint-every", 10*time.Second, "interval between sweep checkpoints")
		resume        = flag.Bool("resume", false, "resume from the -checkpoint file instead of starting fresh")
	)
	flag.Parse()

	// -workers sizes the batch pool, where 0 means GOMAXPROCS. A negative
	// typo (-workers -3) is a usage error here, not a panic in batch.NewPool.
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "missweep: -workers must be >= 0 (0 = GOMAXPROCS), got %d\n", *workers)
		return 2
	}

	if *list || (*runIDs == "" && *scenFiles == "") {
		fmt.Println("experiments:")
		for _, e := range experiment.Registry() {
			fmt.Printf("  %-4s %s\n       claim: %s\n", e.ID, e.Title, e.Claim)
		}
		fmt.Println()
		fmt.Print(scenario.Vocabulary())
		if *runIDs == "" && *scenFiles == "" && !*list {
			fmt.Println("\nuse -run <ids>|all or -scenario <files> to execute")
		}
		return 0
	}

	var selected []experiment.Experiment
	if *runIDs != "" {
		if strings.EqualFold(*runIDs, "all") {
			selected = experiment.Registry()
		} else {
			for _, id := range strings.Split(*runIDs, ",") {
				e, ok := experiment.ByID(strings.TrimSpace(id))
				if !ok {
					fmt.Fprintf(os.Stderr, "missweep: unknown experiment %q (use -list)\n", id)
					return 2
				}
				selected = append(selected, e)
			}
		}
	}
	if *scenFiles != "" {
		for _, path := range strings.Split(*scenFiles, ",") {
			s, err := scenario.Load(strings.TrimSpace(path))
			if err != nil {
				fmt.Fprintf(os.Stderr, "missweep: %v\n", err)
				return 2
			}
			e, err := s.Compile()
			if err != nil {
				fmt.Fprintf(os.Stderr, "missweep: %s: %v\n", path, err)
				return 2
			}
			selected = append(selected, e)
		}
	}
	// Scenario names share the experiment-id namespace (checkpoint journal
	// keys, -out filenames); a collision would silently interleave two grids.
	byID := make(map[string]bool, len(selected))
	for _, e := range selected {
		if byID[e.ID] {
			fmt.Fprintf(os.Stderr, "missweep: duplicate experiment id %q in selection (a scenario name collides with another selection)\n", e.ID)
			return 2
		}
		byID[e.ID] = true
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "missweep: create -out dir: %v\n", err)
			return 1
		}
	}

	// One shared work-stealing pool for the whole invocation.
	pool := batch.NewPool(*workers)
	defer pool.Close()

	// Sweep checkpointing: create or load the one-file-per-grid snapshot
	// and save it periodically under a pool quiesce (a consistent cut: no
	// outcome is in flight while the journals serialize).
	var sweep *experiment.SweepCheckpoint
	if *resume && *ckpt == "" {
		fmt.Fprintln(os.Stderr, "missweep: -resume requires -checkpoint <file>")
		return 2
	}
	if *ckpt != "" && *every <= 0 {
		fmt.Fprintln(os.Stderr, "missweep: -checkpoint-every must be a positive duration")
		return 2
	}
	if *ckpt != "" {
		ids := make([]string, len(selected))
		for i, e := range selected {
			ids[i] = e.ID
		}
		if *resume {
			var err error
			sweep, err = experiment.LoadSweepCheckpoint(*ckpt, *scale, *seed, ids)
			if err != nil {
				fmt.Fprintf(os.Stderr, "missweep: %v\n", err)
				return 1
			}
		} else {
			sweep = experiment.NewSweepCheckpoint(*scale, *seed, ids)
		}
		// The quiesce covers only the in-memory cut; the disk I/O (stage,
		// fsync, rename) happens with the pool already running again.
		save := func() {
			pool.Quiesce()
			data, err := sweep.Encode()
			pool.Resume()
			if err == nil {
				err = snapshot.WriteEncoded(*ckpt, data)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "missweep: checkpoint: %v\n", err)
			}
		}
		stop := make(chan struct{})
		ticking := make(chan struct{})
		go func() {
			defer close(ticking)
			t := time.NewTicker(*every)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					save()
				case <-stop:
					return
				}
			}
		}()
		defer func() {
			close(stop)
			<-ticking
			// Final save: the finished sweep's checkpoint holds every table,
			// so a later -resume replays the grid without running a job.
			if err := sweep.Save(*ckpt); err != nil {
				fmt.Fprintf(os.Stderr, "missweep: checkpoint: %v\n", err)
			}
		}()
	}

	type outcome struct {
		tables  []experiment.Table
		cells   *experiment.CellLog
		elapsed time.Duration
	}
	// Experiments run concurrently so their pool jobs interleave, but the
	// number in flight is bounded by the pool size: experiment goroutines
	// also do work outside the pool (building each cell's fixed graphs,
	// rendering tables), and an unbounded launch would hold every
	// experiment's graphs resident at once and oversubscribe the CPU
	// regardless of -workers.
	sem := make(chan struct{}, pool.Workers())
	results := make([]chan outcome, len(selected))
	for i, e := range selected {
		results[i] = make(chan outcome, 1)
		go func(e experiment.Experiment, out chan<- outcome) {
			cells := &experiment.CellLog{}
			// Experiments the checkpoint already completed replay their
			// stored tables without occupying a concurrency slot or
			// submitting a single job.
			if sweep != nil {
				if tables, ok := sweep.Completed(e.ID); ok {
					out <- outcome{tables: tables, cells: cells}
					return
				}
			}
			sem <- struct{}{}
			defer func() { <-sem }()
			cfg := experiment.Config{Scale: *scale, Seed: *seed, Pool: pool, Cells: cells, Chunk: *chunk,
				ScalarEngine: *scalar, IdentityOrder: *identityOrder}
			if sweep != nil {
				cfg.Checkpoint = sweep.Experiment(e.ID)
			}
			start := time.Now()
			tables := e.Run(cfg)
			if sweep != nil {
				sweep.MarkDone(e.ID, tables)
			}
			out <- outcome{tables: tables, cells: cells, elapsed: time.Since(start)}
		}(e, results[i])
	}

	sweepStart := time.Now()
	for i, e := range selected {
		res := <-results[i]
		fmt.Printf("### %s — %s\n", e.ID, e.Title)
		fmt.Printf("paper claim: %s\n\n", e.Claim)
		for j, tab := range res.tables {
			if *csv {
				fmt.Print(tab.CSV())
			} else {
				fmt.Print(tab.Render())
			}
			fmt.Println()
			if *outDir != "" {
				name := fmt.Sprintf("%s_%d.csv", strings.ToLower(e.ID), j)
				path := filepath.Join(*outDir, name)
				if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "missweep: write %s: %v\n", path, err)
					return 1
				}
			}
		}
		cells := res.cells.Cells()
		jobs := 0
		for _, c := range cells {
			jobs += c.Jobs
		}
		fmt.Printf("(%s completed in %v; %d cells, %d scheduled jobs)\n",
			e.ID, res.elapsed.Round(time.Millisecond), len(cells), jobs)
		if *times && len(cells) > 0 {
			sort.Slice(cells, func(a, b int) bool { return cells[a].Elapsed > cells[b].Elapsed })
			top := cells
			if len(top) > 3 {
				top = top[:3]
			}
			for _, c := range top {
				fmt.Printf("  cell %-32s %4d jobs  %v\n", c.Label, c.Jobs, c.Elapsed.Round(time.Millisecond))
			}
		}
		fmt.Println()
	}
	fmt.Printf("(sweep total %v on %d workers)\n", time.Since(sweepStart).Round(time.Millisecond), pool.Workers())
	return 0
}
