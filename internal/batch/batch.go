// Package batch is the work-stealing execution substrate for every
// multi-run workload in the module: the public RunSeeds API, the E1–E18
// experiment cells, and the sweep commands all submit their (graph, seed)
// jobs to one shared Pool instead of spinning up ad-hoc per-cell worker
// pools.
//
// Scheduling model. A Pool owns a fixed set of workers, each with its own
// deque of chunks and its own engine.RunContext (reusable bitsets, counters,
// frontier scratch, and per-vertex generator arrays — so a worker amortizes
// its allocations across thousands of runs). Submitted work arrives as
// Shards: a shard is one graph plus the list of seeds to run on it. The
// shard's graph is built lazily, exactly once, by whichever worker first
// claims one of its chunks, and is shared read-only by every other worker
// running that shard's seeds. Shards are cut into chunks and dealt
// round-robin onto the worker deques; a worker pops oldest-first from its
// own deque and, when empty, steals the newest chunk of another's — so a few
// huge cells (large graphs, many seeds) spread across the pool while small
// cells stay local.
//
// Determinism. Every run is a pure function of (graph, seed): which worker
// executes it, and in what order, cannot change its outcome. What COULD
// change under rescheduling is floating-point aggregation order, so the
// Pool delivers outcomes to each batch's sink strictly in job order
// (shard submission order, then seed order) through a small reorder buffer.
// A streaming aggregate fed by the sink is therefore bit-identical at any
// worker count, under any steal pattern — asserted by the package tests.
package batch

import (
	"fmt"
	"runtime"
	"sync"

	"ssmis/internal/engine"
	"ssmis/internal/graph"
)

// Outcome is one completed run. Runners fill the measurement fields; the
// pool overwrites Index and Seed before delivery.
type Outcome struct {
	// Index is the job's position in its batch (shard submission order, then
	// seed order); sinks observe indices 0, 1, 2, ... in order.
	Index int
	// Seed is the seed the run was given.
	Seed uint64
	// Rounds and Bits are the standard stabilization measurements.
	Rounds int
	Bits   int64
	// Failed marks a run that hit its round cap; Broken marks a stabilized
	// run whose black set failed MIS verification.
	Failed bool
	Broken bool
	// Extra carries workload-specific payloads (local times, churn
	// recoveries, ...) for cells that measure more than rounds and bits.
	Extra any
}

// Runner executes the i-th seed of a shard. g is the shard's shared
// read-only graph (nil when the shard has no Build — such runners construct
// their own per-seed graph). rc is the executing worker's reusable engine
// scratch; pass it to the process constructor via mis.WithRunContext.
type Runner func(rc *engine.RunContext, g *graph.Graph, i int, seed uint64) Outcome

// Shard is a group of runs sharing one graph: the unit of submission.
type Shard struct {
	// Build constructs the shard's graph; it is called at most once, by the
	// first worker to claim a chunk, and the result is shared read-only
	// across all the shard's seeds. May be nil when Run builds per-seed
	// graphs itself.
	Build func() *graph.Graph
	// Seeds lists the runs; one job per seed.
	Seeds []uint64
	// Run executes one seed.
	Run Runner
}

// SubmitOptions tunes how a batch is scheduled.
type SubmitOptions struct {
	// ChunkSize caps how many consecutive seeds of one shard a worker claims
	// at a time. <= 0 picks a size giving each worker about two chunks per
	// shard. 1 maximizes steal opportunities (every job individually
	// stealable).
	ChunkSize int
	// PinFirst queues every chunk on worker 0's deque, so all other workers
	// can make progress only by stealing — the forced-steal schedule the
	// determinism tests exercise.
	PinFirst bool
	// Replay is a recorded prefix of the batch's outcomes (job indices
	// 0..len-1, in order), the resume half of sweep checkpointing: the
	// replayed outcomes are delivered to the sink synchronously at submit
	// time — before any live outcome — and their jobs are never scheduled.
	// Scheduling starts at job index len(Replay). Every run is a pure
	// function of (graph, seed), so a sink fed a recorded prefix plus live
	// remainder aggregates exactly what an uninterrupted batch would have
	// fed it. Submit panics when the prefix is longer than the batch.
	Replay []Outcome
	// Record, when non-nil, observes every delivery in order (replayed and
	// live), after the sink, under the batch lock — the journal half of
	// sweep checkpointing. Like the sink it must be fast and may not block.
	Record func(Outcome)
}

// chunk is a contiguous seed range [lo, hi) of one shard.
type chunk struct {
	shard  *shardState
	lo, hi int
}

// shardState is a submitted shard plus its lazily-built graph.
type shardState struct {
	Shard
	b    *Batch
	base int // global index of Seeds[0] within the batch
	once sync.Once
	g    *graph.Graph
}

func (st *shardState) graph() *graph.Graph {
	st.once.Do(func() {
		if st.Build != nil {
			st.g = st.Build()
		}
	})
	return st.g
}

// worker is one pool worker: a deque of chunks and the run context its jobs
// lease engine scratch from.
type worker struct {
	id int
	rc *engine.RunContext

	mu   sync.Mutex
	dq   []chunk
	head int // dq[head:] is live; [0,head) already stolen
}

func (w *worker) push(c chunk) {
	w.mu.Lock()
	w.dq = append(w.dq, c)
	w.mu.Unlock()
}

// pop takes from the front (oldest queued) — the owner's end. Owners
// consume their chunks in submission (job-index) order, which keeps each
// batch's reorder buffer near-empty: the cursor's next outcome is almost
// always the next one an owner produces. (Classic work-stealing pops LIFO
// for recursive-spawn locality; batch chunks are pre-cut and independent,
// so delivery order is the dominant concern.)
func (w *worker) pop() (chunk, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.head >= len(w.dq) {
		return chunk{}, false
	}
	c := w.dq[w.head]
	w.head++
	if w.head == len(w.dq) {
		w.dq, w.head = w.dq[:0], 0
	}
	return c, true
}

// steal takes from the back (newest) — the thief's end, so a thief grabs
// the chunk its victim would touch last.
func (w *worker) steal() (chunk, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.head >= len(w.dq) {
		return chunk{}, false
	}
	c := w.dq[len(w.dq)-1]
	w.dq = w.dq[:len(w.dq)-1]
	if w.head == len(w.dq) {
		w.dq, w.head = w.dq[:0], 0
	}
	return c, true
}

// Pool is a work-stealing worker pool executing batch runs. Create one with
// NewPool, submit with Submit/SubmitOpts, and Close it when done. All
// methods are safe for concurrent use.
type Pool struct {
	workers []*worker

	mu      sync.Mutex
	cond    *sync.Cond
	gen     uint64 // bumped on every Submit, so sleeping workers re-scan
	next    int    // round-robin placement cursor
	closed  bool
	paused  bool // Quiesce: workers park instead of starting chunks
	running int  // workers currently executing a chunk
	wg      sync.WaitGroup

	steals uint64 // successful steals (scheduler introspection / tests)
}

// NewPool starts a pool with the given number of workers (0 selects
// GOMAXPROCS). A negative count panics, matching mis.WithWorkers' loud
// validation — it used to be silently coerced to GOMAXPROCS,
// which let CLI typos like `-workers -3` pass unnoticed.
func NewPool(workers int) *Pool {
	if workers < 0 {
		panic(fmt.Sprintf("batch: negative worker count %d", workers))
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		p.workers = append(p.workers, &worker{id: i, rc: engine.NewRunContext()})
	}
	p.wg.Add(workers)
	for _, w := range p.workers {
		go p.workerLoop(w)
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return len(p.workers) }

// Steals returns the number of successful steals so far.
func (p *Pool) Steals() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.steals
}

// Close drains every queued chunk, stops the workers, and waits for them to
// exit. Submitting after Close panics; batches submitted before Close
// complete normally. Closing a quiesced pool resumes execution (the drain
// guarantee wins over the pause).
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// Quiesce pauses the pool at a run boundary: no worker starts another
// chunk, and Quiesce returns once every in-flight chunk has finished —
// from then until Resume, no outcome is delivered and every batch's
// journal is frozen, which is the consistent cut the sweep checkpointer
// serializes. Queued chunks stay queued (workers that claimed one park
// holding it untouched). Quiesce on an idle or already-quiesced pool
// returns immediately; Submit during a pause only queues work.
func (p *Pool) Quiesce() {
	p.mu.Lock()
	p.paused = true
	for p.running > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// Resume reawakens a quiesced pool.
func (p *Pool) Resume() {
	p.mu.Lock()
	p.paused = false
	p.cond.Broadcast()
	p.mu.Unlock()
}

// admit marks the calling worker as running one chunk, parking first while
// the pool is quiesced (the claimed chunk waits, untouched, for Resume).
func (p *Pool) admit() {
	p.mu.Lock()
	for p.paused && !p.closed {
		p.cond.Wait()
	}
	p.running++
	p.mu.Unlock()
}

// release is admit's counterpart after the chunk completes; it wakes a
// Quiesce waiting for the pool to fall idle.
func (p *Pool) release() {
	p.mu.Lock()
	p.running--
	if p.running == 0 {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// Submit enqueues shards as one batch with default scheduling. Each
// outcome is delivered exactly once, in job order, to sink (which must be
// fast and may not block — it runs on worker goroutines under the batch
// lock). sink may be nil. The returned Batch's Wait blocks until every job
// has been delivered.
func (p *Pool) Submit(shards []Shard, sink func(Outcome)) *Batch {
	return p.SubmitOpts(shards, SubmitOptions{}, sink)
}

// SubmitOpts is Submit with explicit scheduling options.
func (p *Pool) SubmitOpts(shards []Shard, opt SubmitOptions, sink func(Outcome)) *Batch {
	total := 0
	for _, sh := range shards {
		total += len(sh.Seeds)
	}
	skip := len(opt.Replay)
	if skip > total {
		panic(fmt.Sprintf("batch: replay prefix of %d outcomes for a batch of %d jobs", skip, total))
	}
	b := &Batch{sink: sink, record: opt.Record, total: total, pending: make(map[int]Outcome), done: make(chan struct{})}
	// Replay the recorded prefix before publishing the batch: the sink sees
	// indices 0..skip-1 from the journal, then live outcomes from skip on.
	for i, o := range opt.Replay {
		o.Index = i
		b.emit(o)
	}
	if total == skip {
		p.mu.Lock()
		closed := p.closed
		p.mu.Unlock()
		if closed {
			panic("batch: Submit on a closed pool")
		}
		b.completed = true
		close(b.done)
		return b
	}
	var chunks []chunk
	base := 0
	for _, sh := range shards {
		if len(sh.Seeds) == 0 {
			continue
		}
		st := &shardState{Shard: sh, b: b, base: base}
		base += len(sh.Seeds)
		// Seeds whose outcomes were replayed are not scheduled again; the
		// auto chunk size spreads the LIVE remainder across the pool, so a
		// mostly-journaled resumed shard doesn't serialize its tail.
		start := 0
		if skip > st.base {
			start = skip - st.base
			if start > len(st.Seeds) {
				start = len(st.Seeds)
			}
		}
		cs := opt.ChunkSize
		if cs <= 0 {
			cs = (len(sh.Seeds) - start + 2*len(p.workers) - 1) / (2 * len(p.workers))
			if cs < 1 {
				cs = 1
			}
		}
		for lo := start; lo < len(st.Seeds); lo += cs {
			hi := lo + cs
			if hi > len(st.Seeds) {
				hi = len(st.Seeds)
			}
			chunks = append(chunks, chunk{shard: st, lo: lo, hi: hi})
		}
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("batch: Submit on a closed pool")
	}
	for _, c := range chunks {
		w := p.workers[0]
		if !opt.PinFirst {
			w = p.workers[p.next%len(p.workers)]
			p.next++
		}
		w.push(c)
	}
	p.gen++
	p.cond.Broadcast()
	p.mu.Unlock()
	return b
}

// workerLoop runs chunks until the pool is closed and no work remains.
func (p *Pool) workerLoop(w *worker) {
	defer p.wg.Done()
	for {
		c, ok := p.take(w)
		if !ok {
			return
		}
		g := c.shard.graph()
		for i := c.lo; i < c.hi; i++ {
			o := c.shard.Run(w.rc, g, i, c.shard.Seeds[i])
			o.Index = c.shard.base + i
			o.Seed = c.shard.Seeds[i]
			c.shard.b.deliver(o)
		}
		p.release()
	}
}

// take returns the next chunk for w — own deque first, then a steal sweep
// over the other workers, then sleep until a Submit bumps the generation —
// and admits it past the quiesce gate (the returned chunk is counted in
// running). It returns false only when the pool is closed and a full sweep
// found nothing — every chunk queued before Close is guaranteed to run,
// because a non-empty deque keeps its owner awake.
func (p *Pool) take(w *worker) (chunk, bool) {
	for {
		p.mu.Lock()
		for p.paused && !p.closed {
			p.cond.Wait()
		}
		gen, closed := p.gen, p.closed
		p.mu.Unlock()
		if c, ok := w.pop(); ok {
			p.admit()
			return c, true
		}
		for off := 1; off < len(p.workers); off++ {
			v := p.workers[(w.id+off)%len(p.workers)]
			if c, ok := v.steal(); ok {
				p.mu.Lock()
				p.steals++
				p.mu.Unlock()
				p.admit()
				return c, true
			}
		}
		if closed {
			return chunk{}, false
		}
		p.mu.Lock()
		for p.gen == gen && !p.closed && !p.paused {
			p.cond.Wait()
		}
		p.mu.Unlock()
	}
}

// Batch tracks one Submit call: a reorder buffer feeding the sink in job
// order, and a completion signal.
type Batch struct {
	mu        sync.Mutex
	sink      func(Outcome)
	record    func(Outcome) // checkpoint journal; observes every emit
	pending   map[int]Outcome
	cursor    int
	total     int
	completed bool
	done      chan struct{}
}

// deliver hands o to the sink if it is the next job in order, buffering it
// otherwise; it closes done after the last in-order delivery.
func (b *Batch) deliver(o Outcome) {
	b.mu.Lock()
	if o.Index != b.cursor {
		b.pending[o.Index] = o
		b.mu.Unlock()
		return
	}
	b.emit(o)
	for {
		next, ok := b.pending[b.cursor]
		if !ok {
			break
		}
		delete(b.pending, b.cursor)
		b.emit(next)
	}
	finished := b.cursor == b.total && !b.completed
	if finished {
		b.completed = true
	}
	b.mu.Unlock()
	if finished {
		close(b.done)
	}
}

func (b *Batch) emit(o Outcome) {
	if b.sink != nil {
		b.sink(o)
	}
	if b.record != nil {
		b.record(o)
	}
	b.cursor++
}

// Wait blocks until every job of the batch has been delivered to the sink.
func (b *Batch) Wait() { <-b.done }
