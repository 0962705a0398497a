package engine

// Counter planes: where the engine's incremental neighbor counters live.
// The flat layout — two full-width []int32 arrays indexed by vertex — pays
// for its generality on every commit: the neighbor scatter is a
// random-access read-modify-write stream into 4 bytes per touched neighbor.
// A counterPlane restructures that storage without changing a single value
// anyone reads:
//
//   - Width-adaptive tail lanes. A counter never exceeds its vertex's
//     degree, so when the maximum degree outside the hub prefix fits in a
//     byte (or a halfword) the tail counters live in uint8 (uint16) lanes —
//     4x (2x) less scatter traffic for the same values. The width is chosen
//     once, at configure time, from the degree profile; a graph whose tail
//     cannot fit falls back to int32 loudly (CounterPlaneInfo.FellBack, and
//     the scatter loops guard the bound with a panic rather than wrap).
//
//   - Hub/tail split. When the hub prefix [0, h) is populated — natural
//     weight-sorted generator order, or graph.DegreeBucketOrder packing
//     hubs first — the hubs keep a dense full-width int32 plane of their
//     own, small enough to stay cache-resident across a round, while the
//     tail (degree < graph.HubDegreeMin, so always narrow) shrinks to its
//     own width. The tail lanes still span [0, n) so a cell index is a
//     vertex id; the unused [0, h) prefix stays zero.
//
// Determinism: the plane changes only where counters are stored, never what
// any read returns. Membership refresh, coin draws, and coverage stamps are
// pure functions of the counter values, so every layout replays
// coin-for-coin bit-identical executions. CheckIntegrity verifies each
// plane against a flat recount plus the layout-selection invariants.

import (
	"fmt"
	"unsafe"

	"ssmis/internal/graph"
)

// CounterLayout selects the neighbor-counter plane layout (Options).
type CounterLayout uint8

const (
	// LayoutAuto resolves from the degree profile: the hub/tail split when
	// the hub prefix is populated and the tail fits a narrow width, narrow
	// lanes when there is no hub prefix but the graph fits, and flat when
	// only full-width cells would do.
	LayoutAuto CounterLayout = iota
	// LayoutFlat forces the classic full-width []int32 pair — the baseline
	// the differential tests and the BENCH_kernel.json rows compare against.
	LayoutFlat
	// LayoutNarrow forces width-adaptive lanes with no hub split. A graph
	// whose maximum degree needs more than 16 bits falls back to int32
	// loudly (CounterPlaneInfo.FellBack).
	LayoutNarrow
	// LayoutSplit forces the hub/tail split (degenerating to narrow
	// geometry when the graph has no hub prefix).
	LayoutSplit
)

// String names the layout for test output and bench rows.
func (l CounterLayout) String() string {
	switch l {
	case LayoutAuto:
		return "auto"
	case LayoutFlat:
		return "flat"
	case LayoutNarrow:
		return "narrow"
	case LayoutSplit:
		return "split"
	}
	return fmt.Sprintf("layout(%d)", uint8(l))
}

// cell constrains the tail-lane element types. The commit scatters are
// generic over it, so each width gets its own stenciled loop body — no
// per-neighbor width dispatch in the hottest loop of the engine.
type cell interface{ uint8 | uint16 | int32 }

// counterPlane is the storage behind countA/countB off the complete-graph
// fast path. Exactly one tail view pair (t8/t16/t32) is non-nil, aliasing
// the word-typed backing (backA/backB) so the byte-lane settle can read a
// lane word's 64 cells as 8 whole backing words.
type counterPlane struct {
	req      CounterLayout // the layout Options asked for
	layout   CounterLayout // resolved: flat, narrow, or split
	width    uint8         // tail cell size in bytes: 1, 2, or 4
	hubLen   int           // hub prefix length h; tail is [h, n)
	fellBack bool          // a narrow/split request needed the int32 fallback
	n        int
	useB     bool

	hubA, hubB []int32 // dense full-width plane for [0, hubLen)

	backA, backB []uint64 // tail backing, (n words) rounded to lane words
	t8a, t8b     []uint8
	t16a, t16b   []uint16
	t32a, t32b   []int32
}

// resolveCounterLayout picks the plane geometry for g under the requested
// layout: the hub prefix h is the maximal prefix of vertices with degree >=
// graph.HubDegreeMin (so it is populated exactly when hubs are packed
// first — by the generators' weight-sorted ids or by DegreeBucketOrder),
// and the tail width is the smallest cell holding the maximum degree
// outside it (a counter never exceeds its vertex's degree).
func resolveCounterLayout(g *graph.Graph, req CounterLayout) (layout CounterLayout, width uint8, hubLen int, fellBack bool) {
	if req == LayoutFlat {
		return LayoutFlat, 4, 0, false
	}
	n := g.N()
	h := 0
	if req != LayoutNarrow {
		for h < n && g.Degree(h) >= graph.HubDegreeMin {
			h++
		}
	}
	maxTail := 0
	if h == 0 {
		maxTail = g.MaxDegree()
	} else {
		for u := h; u < n; u++ {
			if d := g.Degree(u); d > maxTail {
				maxTail = d
			}
		}
	}
	switch {
	case maxTail <= 0xFF:
		width = 1
	case maxTail <= 0xFFFF:
		width = 2
	default:
		width = 4
	}
	switch req {
	case LayoutNarrow:
		return LayoutNarrow, width, 0, width == 4
	case LayoutSplit:
		return LayoutSplit, width, h, width == 4
	}
	// Auto: a full-width tail means the split buys nothing the flat array's
	// contiguous prefix doesn't already have.
	if width == 4 {
		return LayoutFlat, 4, 0, false
	}
	if h > 0 {
		return LayoutSplit, width, h, false
	}
	return LayoutNarrow, width, 0, false
}

// configure resolves the layout for g and (re)shapes the plane's arrays,
// zeroed, reusing capacity — Rebuild recounts into it afterwards. The plane
// value itself is owned by the engine or leased from a RunContext; either
// way configure is the only entry point.
func (p *counterPlane) configure(g *graph.Graph, req CounterLayout, useB bool) {
	layout, width, hubLen, fellBack := resolveCounterLayout(g, req)
	n := g.N()
	p.req, p.layout, p.width, p.hubLen, p.fellBack = req, layout, width, hubLen, fellBack
	p.n, p.useB = n, useB
	words := (n + 63) / 64
	backWords := words * 8 * int(width) // a lane word is 64 cells of width bytes
	p.hubA = grow(p.hubA, hubLen)
	p.backA = grow(p.backA, backWords)
	p.t8a, p.t16a, p.t32a = tailViews(p.backA, width, n)
	if useB {
		p.hubB = grow(p.hubB, hubLen)
		p.backB = grow(p.backB, backWords)
		p.t8b, p.t16b, p.t32b = tailViews(p.backB, width, n)
	} else {
		p.hubB = p.hubB[:0]
		p.backB = p.backB[:0]
		p.t8b, p.t16b, p.t32b = nil, nil, nil
	}
}

// tailViews returns the typed tail view of the selected width over the
// word backing (the other two are nil).
func tailViews(back []uint64, width uint8, n int) ([]uint8, []uint16, []int32) {
	if n == 0 {
		return nil, nil, nil
	}
	base := unsafe.Pointer(&back[0])
	switch width {
	case 1:
		return unsafe.Slice((*uint8)(base), n), nil, nil
	case 2:
		return nil, unsafe.Slice((*uint16)(base), n), nil
	default:
		return nil, nil, unsafe.Slice((*int32)(base), n)
	}
}

// a returns counter A of u.
func (p *counterPlane) a(u int) int32 {
	if u < p.hubLen {
		return p.hubA[u]
	}
	switch p.width {
	case 1:
		return int32(p.t8a[u])
	case 2:
		return int32(p.t16a[u])
	}
	return p.t32a[u]
}

// b returns counter B of u.
func (p *counterPlane) b(u int) int32 {
	if u < p.hubLen {
		return p.hubB[u]
	}
	switch p.width {
	case 1:
		return int32(p.t8b[u])
	case 2:
		return int32(p.t16b[u])
	}
	return p.t32b[u]
}

// checkLayout re-resolves the layout from the graph and verifies every
// selection invariant plus the unused-tail-prefix zeros — the plane half of
// CheckIntegrity (the value half is the per-vertex flat recount against
// countA/countB).
func (p *counterPlane) checkLayout(g *graph.Graph, req CounterLayout) error {
	layout, width, hubLen, fellBack := resolveCounterLayout(g, req)
	if p.req != req || p.layout != layout || p.width != width || p.hubLen != hubLen || p.fellBack != fellBack {
		return fmt.Errorf("counter plane (%v w%d h=%d fb=%v) for request %v, resolution says (%v w%d h=%d fb=%v)",
			p.layout, p.width, p.hubLen, p.fellBack, req, layout, width, hubLen, fellBack)
	}
	if p.n != g.N() {
		return fmt.Errorf("counter plane geometry n=%d, want %d", p.n, g.N())
	}
	if len(p.hubA) != hubLen || (p.useB && len(p.hubB) != hubLen) {
		return fmt.Errorf("hub plane sized %d/%d for hub prefix %d", len(p.hubA), len(p.hubB), hubLen)
	}
	for u := 0; u < hubLen; u++ {
		if p.tailCell(p.width, false, u) != 0 || (p.useB && p.tailCell(p.width, true, u) != 0) {
			return fmt.Errorf("tail cell %d inside the hub prefix is nonzero", u)
		}
	}
	return nil
}

// tailCell reads tail cell u of the given width (b selects the B lane) —
// slow-path helper for checkLayout only.
func (p *counterPlane) tailCell(width uint8, b bool, u int) int32 {
	switch width {
	case 1:
		if b {
			return int32(p.t8b[u])
		}
		return int32(p.t8a[u])
	case 2:
		if b {
			return int32(p.t16b[u])
		}
		return int32(p.t16a[u])
	}
	if b {
		return p.t32b[u]
	}
	return p.t32a[u]
}

// CounterPlaneInfo reports the resolved counter-plane geometry — the
// observable half of the "loud fallback" contract (tests assert FellBack
// when a forced-narrow graph cannot fit a sub-32-bit width).
type CounterPlaneInfo struct {
	Layout    CounterLayout // resolved layout (flat, narrow, or split)
	WidthBits int           // tail cell width: 8, 16, or 32
	HubLen    int           // hub prefix length (0 without a split)
	FellBack  bool          // narrow/split request fell back to int32
	Active    bool          // false on the complete-graph fast path
}

// CounterPlane reports the engine's resolved counter-plane geometry; the
// zero Info on the complete-graph fast path, which has no counters.
func (e *Core) CounterPlane() CounterPlaneInfo {
	if e.complete || e.plane == nil || e.plane.n != e.g.N() {
		return CounterPlaneInfo{}
	}
	p := e.plane
	return CounterPlaneInfo{
		Layout:    p.layout,
		WidthBits: int(p.width) * 8,
		HubLen:    p.hubLen,
		FellBack:  p.fellBack,
		Active:    true,
	}
}

// panicCounterOverflow is the loud guard behind the narrow widths: the
// width selection proves a counter fits its lane (counter <= degree <= max
// tail degree), so reaching this is a selection bug, never a wrap.
func panicCounterOverflow(v int, val int32) {
	panic(fmt.Sprintf("engine: neighbor counter of vertex %d overflows its lane width (value %d)", v, val))
}

// settleHBNWords re-derives the kernel's hasANbr/hasBNbr bits of lane words
// [loWord, hiWord) from the plane — the plane-aware bulk load of the
// neighbor lanes at Rebuild.
func (e *Core) settleHBNWords(loWord, hiWord int) {
	p := e.plane
	hbnA, hbnB := e.kern.HBNWords()
	switch p.width {
	case 1:
		settleHBN8(p, hbnA, hbnB, loWord, hiWord)
	case 2:
		settleHBNT(p, p.t16a, p.t16b, hbnA, hbnB, loWord, hiWord)
	default:
		settleHBNT(p, p.t32a, p.t32b, hbnA, hbnB, loWord, hiWord)
	}
}

// settleHBNT is the per-vertex settle over any width; words fully past the
// hub prefix read the tail lane directly.
func settleHBNT[T cell](p *counterPlane, tailA, tailB []T, hbnA, hbnB []uint64, loWord, hiWord int) {
	for wi := loWord; wi < hiWord; wi++ {
		base := wi * 64
		end := min(base+64, p.n)
		var ma, mb uint64
		if base >= p.hubLen {
			for vi := base; vi < end; vi++ {
				if tailA[vi] != 0 {
					ma |= 1 << uint(vi-base)
				}
			}
			if p.useB {
				for vi := base; vi < end; vi++ {
					if tailB[vi] != 0 {
						mb |= 1 << uint(vi-base)
					}
				}
			}
		} else {
			for vi := base; vi < end; vi++ {
				if p.a(vi) != 0 {
					ma |= 1 << uint(vi-base)
				}
			}
			if p.useB {
				for vi := base; vi < end; vi++ {
					if p.b(vi) != 0 {
						mb |= 1 << uint(vi-base)
					}
				}
			}
		}
		hbnA[wi] = ma
		if p.useB {
			hbnB[wi] = mb
		}
	}
}

// settleHBN8 is the byte-lane settle: a whole lane word's 64 cells are 8
// backing words, each collapsed to a nonzero-byte mask — no per-vertex
// loop. Backing words are zero-padded past n, so trailing bits stay zero.
func settleHBN8(p *counterPlane, hbnA, hbnB []uint64, loWord, hiWord int) {
	for wi := loWord; wi < hiWord; wi++ {
		if wi*64 < p.hubLen {
			settleHBNT(p, p.t8a, p.t8b, hbnA, hbnB, wi, wi+1)
			continue
		}
		b := wi * 8
		var ma uint64
		for k := 0; k < 8; k++ {
			ma |= byteNonzeroMask(p.backA[b+k]) << uint(8*k)
		}
		hbnA[wi] = ma
		if p.useB {
			var mb uint64
			for k := 0; k < 8; k++ {
				mb |= byteNonzeroMask(p.backB[b+k]) << uint(8*k)
			}
			hbnB[wi] = mb
		}
	}
}

// byteNonzeroMask returns an 8-bit mask whose bit i is set iff byte i of w
// is nonzero: OR-collapse each byte into its low bit, then gather the low
// bits into the top byte (the multiply maps byte i's bit to bit 56+i; each
// product bit has exactly one contribution, so no carries).
func byteNonzeroMask(w uint64) uint64 {
	w |= w >> 4
	w |= w >> 2
	w |= w >> 1
	w &= 0x0101010101010101
	return (w * 0x0102040810204080) >> 56
}
