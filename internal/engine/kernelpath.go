package engine

// The bit-sliced kernel path. For all three of the paper's rules the
// engine's per-vertex bookkeeping — worklist bit, active bit, stable-core
// bit — is a pure boolean function of at most four bits per vertex (the
// 2-bit state code plus the zero/nonzero projections of the two neighbor
// counters), so the whole evaluate/commit/refresh cycle can run 64 vertices
// per machine word over kernel.Lanes instead of one interface call per
// vertex:
//
//   - Step evaluates whole touched words (kernel.EvalWords) against the
//     rule's compiled lane program, drawing each coin from that vertex's own
//     stream in ascending order — coin-for-coin bit-identical to the scalar
//     loop;
//   - the commit maintains the neighbor lanes incrementally: a bit flips
//     exactly when the vertex's counter crosses zero (for the 3-state rule
//     that includes the black1→black0 demotion's counter-B decrement);
//   - refresh re-derives memberships a word at a time: the touched and
//     active words come from the compiled predicates, stored wholesale into
//     the work/active bitsets with popcount deltas, and the new stable-core
//     entrants fall out of CoreWord &^ inI — refreshing a whole dirty word
//     is idempotent for its non-dirty vertices, whose derived bits cannot
//     have changed.
//
// Selection: New engages the kernel when the rule implements KernelRule,
// Options.Scalar is false, and the rule runs no mid-round sub-process. A
// MidRound rule's Touched reads its sub-process, which no lane holds, so it
// runs on the scalar path and reports the vertices whose reading changed
// through MarkDirty; the 3-color rule declares no lane program at all.
// Compile admits two program shapes, and EvalWords has one word-level
// evaluator for each: the XOR-flip shape (2-state) and coin-constant
// programs (3-state).
// Everything else — daemon scheduling, checkpointing, run contexts, the
// complete-graph fast path — flows through the same Core APIs unchanged.

import (
	"fmt"
	"math/bits"

	"ssmis/internal/bitset"
	"ssmis/internal/engine/kernel"
)

// KernelRule marks a rule as eligible for the bit-sliced kernel. The rule
// declares its lane semantics as a compiled kernel program (compile the
// kernel.Spec once, at package level — a program is immutable and shared).
// New validates the program against the rule's scalar Black/Class/Active/
// Touched projections at registration and panics on a rule that claims the
// contract but breaks it; the predicates must be vertex-independent and
// depend on the counters only through zero/nonzero.
type KernelRule interface {
	Rule
	// LaneProgram returns the rule's compiled lane program.
	LaneProgram() *kernel.Program
}

// Kernel reports whether the bit-sliced kernel path is engaged.
func (e *Core) Kernel() bool { return e.kern != nil }

// initKernel engages the kernel when the rule qualifies; called from New
// before Rebuild populates the lanes.
func (e *Core) initKernel(n int) {
	kr, ok := e.rule.(KernelRule)
	if _, mid := e.rule.(MidRound); !ok || mid || e.opts.Scalar {
		return
	}
	prog := kr.LaneProgram()
	if err := e.validateLaneProgram(prog); err != nil {
		panic(fmt.Sprintf("engine: rule %T lane program inconsistent with its scalar projections: %v", e.rule, err))
	}
	if e.ctx != nil {
		e.kern, e.dirtyW = e.ctx.leaseLanes(prog, n)
	} else {
		e.kern = kernel.New(prog, n)
		// The kernel refresh only ever consumes whole lane words, so the
		// dirty frontier is tracked at word granularity: a set over the
		// ⌈n/64⌉ word indices (n=10^6 → 2KB, L1-resident) instead of the
		// 128KB per-vertex set the scalar path marks — the hottest writes in
		// the commit by a wide margin.
		e.dirtyW = bitset.New(e.kern.Words())
	}
}

// validateLaneProgram cross-checks the compiled lane program against the
// rule's scalar projections over every used code and counter zero/nonzero
// combination — the registration-time gate that keeps a mis-declared spec
// from silently diverging from the golden scalar path.
func (e *Core) validateLaneProgram(prog *kernel.Program) error {
	spec := prog.Spec()
	if spec.UseB != e.useB {
		return fmt.Errorf("spec UseB=%v but rule counter-B usage is %v", spec.UseB, e.useB)
	}
	for c := 0; c < 4; c++ {
		s := spec.StateOf[c]
		if s == 0 {
			continue
		}
		if int(s) > e.rule.NumStates() {
			return fmt.Errorf("code %d maps to state %d > NumStates %d", c, s, e.rule.NumStates())
		}
		if black := c&1 == 1; e.rule.Black(s) != black {
			return fmt.Errorf("code %d (state %d): lo bit %v but Black says %v", c, s, black, e.rule.Black(s))
		}
		cl := e.rule.Class(s)
		if (cl&ClassA != 0) != (c&1 == 1) {
			return fmt.Errorf("code %d (state %d): ClassA %v disagrees with the lo bit", c, s, cl&ClassA != 0)
		}
		if (cl&ClassB != 0) != (spec.UseB && c == 3) {
			return fmt.Errorf("code %d (state %d): ClassB states must be exactly code 3 of a UseB program", c, s)
		}
		for _, a := range []int32{0, 1} {
			for _, b := range []int32{0, 1} {
				if got, want := prog.ActiveBit(c, a > 0, b > 0), e.rule.Active(0, s, a, b); got != want {
					return fmt.Errorf("code %d (state %d) a=%d b=%d: Active table %v, rule says %v", c, s, a, b, got, want)
				}
				if got, want := prog.TouchedBit(c, a > 0, b > 0), e.rule.Touched(0, s, a, b); got != want {
					return fmt.Errorf("code %d (state %d) a=%d b=%d: Touched table %v, rule says %v", c, s, a, b, got, want)
				}
			}
		}
	}
	return nil
}

// commitKernel is commit specialized to the kernel path: it mirrors the
// scalar commit's class-delta bookkeeping and additionally lands the lane
// code of every change and maintains the neighbor lanes incrementally — a
// hasANbr/hasBNbr bit flips exactly when the neighbor's counter crosses
// zero (the crossing tests nv == da / nv == 0 fire only on the matching
// delta sign, since counters never go negative). Dirty tracking is per lane
// word (dirtyW), not per vertex — the refresh re-derives whole words
// anyway, and the word-index set is small enough to stay cache-resident
// under the random neighbor writes. The lane flips write the raw hbn words
// directly (kernel.HBNWords) and the loops are split per (da, db) shape:
// this is the dominant flat cost of the whole kernel path, and a call or a
// loop-invariant branch per neighbor is measurable at n = 10^6.
func (e *Core) commitKernel(changes []change) {
	if e.complete {
		e.commitKernelComplete(changes)
		return
	}
	switch e.plane.width {
	case 1:
		commitKernelT(e, changes, e.plane.t8a, e.plane.t8b)
	case 2:
		commitKernelT(e, changes, e.plane.t16a, e.plane.t16b)
	default:
		commitKernelT(e, changes, e.plane.t32a, e.plane.t32b)
	}
}

// commitKernelComplete is the kernel commit on the complete-graph fast
// path: lane codes land, class changes dirty the whole universe, and the
// refresh refills the neighbor lanes from the class totals.
func (e *Core) commitKernelComplete(changes []change) {
	loL, hiL := e.kern.StateWords()
	prog := e.kern.Program()
	useHi := prog.UseHi()
	for _, c := range changes {
		u := int(c.U)
		s, ns := e.state[u], c.S
		e.stateCnt[s]--
		e.stateCnt[ns]++
		e.state[u] = ns
		e.dirtyW.Add(u >> 6)
		code := prog.CodeOf(ns)
		if code > 3 {
			panic(fmt.Sprintf("kernel: state %d not in the lane encoding", ns))
		}
		ubit := uint64(1) << (uint(u) & 63)
		if code&1 != 0 {
			loL[u>>6] |= ubit
		} else {
			loL[u>>6] &^= ubit
		}
		if useHi {
			if code&2 != 0 {
				hiL[u>>6] |= ubit
			} else {
				hiL[u>>6] &^= ubit
			}
		}
		oldCl, newCl := e.classTab[s], e.classTab[ns]
		if oldCl == newCl {
			continue
		}
		e.totalA += int(newCl&ClassA) - int(oldCl&ClassA)
		e.totalB += (int(newCl&ClassB) - int(oldCl&ClassB)) >> 1
		e.dirtyAll = true
	}
}

// commitKernelT is the kernel commit over a counter plane with tail cell
// type T — the engine's hottest loop, stenciled per width so the neighbor
// scatter carries no width dispatch; the hub test (vi < hubLen) is a
// single predictable branch (always false on flat/narrow planes). The
// deltas are single steps (da, db in {-1,0,1}), so the zero-crossing tests
// mirror the original flat commit exactly; tail writes round-trip through
// int32 so a narrow lane can never wrap silently (the check folds away at
// full width).
func commitKernelT[T cell](e *Core, changes []change, tailA, tailB []T) {
	p := e.plane
	hubLen := p.hubLen
	hbnA, hbnB := e.kern.HBNWords()
	loL, hiL := e.kern.StateWords()
	prog := e.kern.Program()
	useHi := prog.UseHi()
	for _, c := range changes {
		u := int(c.U)
		s, ns := e.state[u], c.S
		e.stateCnt[s]--
		e.stateCnt[ns]++
		e.state[u] = ns
		e.dirtyW.Add(u >> 6)
		code := prog.CodeOf(ns)
		if code > 3 {
			panic(fmt.Sprintf("kernel: state %d not in the lane encoding", ns))
		}
		ubit := uint64(1) << (uint(u) & 63)
		if code&1 != 0 {
			loL[u>>6] |= ubit
		} else {
			loL[u>>6] &^= ubit
		}
		if useHi {
			if code&2 != 0 {
				hiL[u>>6] |= ubit
			} else {
				hiL[u>>6] &^= ubit
			}
		}
		oldCl, newCl := e.classTab[s], e.classTab[ns]
		if oldCl == newCl {
			continue
		}
		da := int32(newCl&ClassA) - int32(oldCl&ClassA)
		db := (int32(newCl&ClassB) - int32(oldCl&ClassB)) >> 1
		e.totalA += int(da)
		e.totalB += int(db)
		if !e.useB {
			db = 0
		}
		switch {
		case da != 0 && db != 0:
			for _, v := range e.g.Neighbors(u) {
				vi := int(v)
				bit := uint64(1) << (uint(vi) & 63)
				var na, nb int32
				if vi < hubLen {
					na = p.hubA[vi] + da
					p.hubA[vi] = na
					nb = p.hubB[vi] + db
					p.hubB[vi] = nb
				} else {
					na = int32(tailA[vi]) + da
					if int32(T(na)) != na {
						panicCounterOverflow(vi, na)
					}
					tailA[vi] = T(na)
					nb = int32(tailB[vi]) + db
					if int32(T(nb)) != nb {
						panicCounterOverflow(vi, nb)
					}
					tailB[vi] = T(nb)
				}
				if na == da {
					hbnA[vi>>6] |= bit
				} else if na == 0 {
					hbnA[vi>>6] &^= bit
				}
				if nb == db {
					hbnB[vi>>6] |= bit
				} else if nb == 0 {
					hbnB[vi>>6] &^= bit
				}
				e.dirtyW.Add(vi >> 6)
			}
		case db != 0:
			for _, v := range e.g.Neighbors(u) {
				vi := int(v)
				var nb int32
				if vi < hubLen {
					nb = p.hubB[vi] + db
					p.hubB[vi] = nb
				} else {
					nb = int32(tailB[vi]) + db
					if int32(T(nb)) != nb {
						panicCounterOverflow(vi, nb)
					}
					tailB[vi] = T(nb)
				}
				if nb == db {
					hbnB[vi>>6] |= 1 << (uint(vi) & 63)
				} else if nb == 0 {
					hbnB[vi>>6] &^= 1 << (uint(vi) & 63)
				}
				e.dirtyW.Add(vi >> 6)
			}
		case da != 0:
			for _, v := range e.g.Neighbors(u) {
				vi := int(v)
				var na int32
				if vi < hubLen {
					na = p.hubA[vi] + da
					p.hubA[vi] = na
				} else {
					na = int32(tailA[vi]) + da
					if int32(T(na)) != na {
						panicCounterOverflow(vi, na)
					}
					tailA[vi] = T(na)
				}
				if na == da {
					hbnA[vi>>6] |= 1 << (uint(vi) & 63)
				} else if na == 0 {
					hbnA[vi>>6] &^= 1 << (uint(vi) & 63)
				}
				e.dirtyW.Add(vi >> 6)
			}
		}
	}
}

// refreshKernelWord re-derives the memberships of word wi's 64 vertices
// from the lanes: one store per bitset word, popcount deltas, and the new
// stable-core entrants stamped in ascending order. When the rule's touched
// and active tables coincide (2-state) the second predicate evaluation is
// skipped.
func (e *Core) refreshKernelWord(wi int) {
	tw := e.kern.TouchedWord(wi)
	if old := e.work.Word(wi); tw != old {
		e.work.SetWord(wi, tw)
		e.workCnt += bits.OnesCount64(tw) - bits.OnesCount64(old)
	}
	aw := tw
	if !e.kern.Program().TouchedIsActive() {
		aw = e.kern.ActiveWord(wi)
	}
	if old := e.active.Word(wi); aw != old {
		e.active.SetWord(wi, aw)
		e.activeCnt += bits.OnesCount64(aw) - bits.OnesCount64(old)
	}
	if ent := e.kern.CoreWord(wi) &^ e.inI.Word(wi); ent != 0 {
		base := wi * 64
		for w := ent; w != 0; w &= w - 1 {
			e.enterCore(base + bits.TrailingZeros64(w))
		}
	}
}

// refreshKernel is refresh on the kernel path. The incremental
// neighbor-lane maintenance in commitKernel keeps the lanes exact here
// except on the complete-graph path, which re-derives them from the class
// totals in O(n/64) words.
func (e *Core) refreshKernel() {
	if e.dirtyAll || e.opts.FullRescan {
		if e.complete {
			e.kern.FillHBNComplete(e.totalA, e.totalB)
		}
		words := e.kern.Words()
		for wi := 0; wi < words; wi++ {
			e.refreshKernelWord(wi)
		}
	} else {
		e.dirtyW.ForEachWord(func(base int, w uint64) {
			for ; w != 0; w &= w - 1 {
				e.refreshKernelWord(base + bits.TrailingZeros64(w))
			}
		})
	}
	e.dirtyAll = false
	e.dirtyW.Clear()
}
