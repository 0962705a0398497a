package engine

// Membership refresh. After a commit, the engine re-derives the cached
// work/active memberships and advances the monotone coverage tracking for
// every vertex whose state or neighborhood changed (the dirty frontier) —
// or for all of [0, n) under FullRescan and on the complete-graph fast
// path, where counters are class totals and any change can touch every
// vertex. Vertices are visited in ascending order, so new stable-core
// entrants stamp coveredAt on their closed neighborhoods in vertex order.

import "math/bits"

// refresh re-derives worklist/active/coverage membership for the dirty
// frontier (or every vertex under FullRescan / the complete-graph path).
func (e *Core) refresh() {
	if e.kern != nil {
		e.refreshKernel()
		return
	}
	if e.dirtyAll || e.opts.FullRescan {
		n := e.g.N()
		for v := 0; v < n; v++ {
			e.refreshVertex(v)
		}
	} else {
		e.dirty.ForEachWord(func(base int, w uint64) {
			for ; w != 0; w &= w - 1 {
				e.refreshVertex(base + bits.TrailingZeros64(w))
			}
		})
	}
	e.dirtyAll = false
	e.dirty.Clear()
}

// refreshVertex re-derives the work/active bits of v from its state and
// counters, and records v's entry into the stable core.
func (e *Core) refreshVertex(v int) {
	s := e.state[v]
	a, b := e.countA(v), e.countB(v)
	if t := e.rule.Touched(v, s, a, b); t != e.work.Contains(v) {
		e.work.SetTo(v, t)
		if t {
			e.workCnt++
		} else {
			e.workCnt--
		}
	}
	if act := e.rule.Active(v, s, a, b); act != e.active.Contains(v) {
		e.active.SetTo(v, act)
		if act {
			e.activeCnt++
		} else {
			e.activeCnt--
		}
	}
	if e.rule.Black(s) && a == 0 && !e.inI.Contains(v) {
		e.enterCore(v)
	}
}

// enterCore records v's entry into the stable core: v joins I_t and its
// whole closed neighborhood is stamped covered.
func (e *Core) enterCore(v int) {
	e.inI.Add(v)
	e.cover(v)
	for _, w := range e.g.Neighbors(v) {
		e.cover(int(w))
	}
}

// cover stamps v's first entry into N+(I_t) with the current round.
func (e *Core) cover(v int) {
	if e.coveredAt[v] < 0 {
		e.coveredAt[v] = int32(e.round)
		e.coveredCnt++
	}
}
