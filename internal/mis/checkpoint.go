package mis

// Checkpointing: a running process can be serialized to a versioned
// snapshot (internal/snapshot) and restored later to continue the exact
// same execution — states, derived counters, round/bit accounting, the
// per-vertex first-cover stamps (local times), and every per-vertex random
// stream (so the coins after restore equal the coins an uninterrupted run
// would have drawn). Long sweeps can thus survive restarts, and executions
// can be shipped between machines for debugging.
//
// The wire format is the snapshot envelope (magic, format version,
// checksum): truncated, corrupted, or version-skewed checkpoints are
// rejected loudly instead of resuming silently wrong. The graph itself is
// not embedded (graphs can be large and are reconstructible from their own
// seeds or interchange files); Restore functions take the graph and verify
// its order. 2-state states are stored as 0 = white / 1 = black.

import (
	"fmt"

	"ssmis/internal/engine"
	"ssmis/internal/graph"
	"ssmis/internal/phaseclock"
	"ssmis/internal/snapshot"
	"ssmis/internal/xrand"
)

// Checkpoint is a serialized process execution state — the process payload
// of the module-wide snapshot layer. Encode wraps it in the versioned
// envelope; DecodeCheckpoint validates and unwraps.
type Checkpoint = snapshot.Process

// newRestoredClock rebuilds the 3-color switch from checkpointed levels
// (stored in original vertex ids) on the engine's — possibly relabeled —
// graph.
func newRestoredClock(eg *graph.Graph, c *Checkpoint, ord *graph.Ordering) *phaseclock.Clock {
	cl := phaseclock.New(eg, phaseclock.WithZetaLog2(c.ZetaLog2))
	for u, l := range c.Levels {
		cl.SetLevel(ord.NewID(u), l)
	}
	cl.SetRandomBits(c.ClockBits)
	return cl
}

// DecodeCheckpoint parses an encoded checkpoint, rejecting damaged or
// version-skewed data.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	c, err := snapshot.DecodeProcess(data)
	if err != nil {
		return nil, fmt.Errorf("mis: decode checkpoint: %w", err)
	}
	return c, nil
}

// checkpointBias validates the checkpoint's coin bias. A zero value (legacy
// checkpoints predating per-process bias support) means the default fair
// coin; anything else outside (0,1) is a malformed checkpoint and reported
// as an error rather than the engine's construction panic.
func checkpointBias(c *Checkpoint) (float64, error) {
	if c.BlackBias == 0 {
		return 0.5, nil
	}
	// Negated conjunction so NaN fails too.
	if !(c.BlackBias > 0 && c.BlackBias < 1) {
		return 0, fmt.Errorf("mis: checkpoint coin bias %v outside (0,1)", c.BlackBias)
	}
	return c.BlackBias, nil
}

// capture snapshots the engine-owned execution state plus the shared
// process options into a checkpoint shell; callers fill the
// process-specific fields (name, state encoding, switch state).
func capture(core *engine.Core, schedRng *xrand.Rand, o options) (*Checkpoint, error) {
	c := &Checkpoint{BlackBias: o.blackBias, Seed: o.seed}
	if err := c.CaptureEngine(core, schedRng); err != nil {
		return nil, fmt.Errorf("mis: %w", err)
	}
	return c, nil
}

// restoreOptions rebuilds the option set for a restore: caller-supplied
// options first (local times, run context, ...), then the checkpointed values
// that shape randomness — the coin bias and the master seed, so auxiliary
// streams derived lazily after the restore (a first daemon step's
// selection stream) equal the streams the uninterrupted run would derive.
func restoreOptions(c *Checkpoint, opts []Option) (options, error) {
	o := buildOptions(opts)
	var err error
	if o.blackBias, err = checkpointBias(c); err != nil {
		return o, err
	}
	o.seed = c.Seed
	return o, nil
}

// restoreCore assembles an engine over restored state (already permuted
// into ord's space by the caller) and replays the checkpointed accounting
// (round/bits, daemon steps/moves, coverage stamps) into it; the returned
// stream resumes daemon scheduling coin-for-coin (nil when the checkpoint
// carries none). Checkpoints are keyed by original ids, so a run saved
// under one ordering restores under any other.
func restoreCore(g *graph.Graph, ord *graph.Ordering, rule engine.Rule, state []uint8, rngs []*xrand.Rand, o options, noop bool, c *Checkpoint) (*engine.Core, *xrand.Rand, error) {
	core := engine.New(engineGraph(g, ord), rule, state, rngs, o.engine(noop, ord))
	schedRng, err := c.RestoreEngine(core)
	if err != nil {
		return nil, nil, fmt.Errorf("mis: %w", err)
	}
	return core, schedRng, nil
}

// Checkpoint snapshots the 2-state process.
func (p *TwoState) Checkpoint() (*Checkpoint, error) {
	c, err := capture(p.core, p.schedRng, p.opts)
	if err != nil {
		return nil, err
	}
	engineStates := p.core.States()
	states := make([]uint8, len(engineStates))
	for i, s := range engineStates {
		if s == twoBlack {
			states[p.ord.OldID(i)] = 1
		}
	}
	c.Process = "2-state"
	c.States = states
	return c, nil
}

// RestoreTwoState reconstructs a 2-state process from a checkpoint on g.
// Extra options (e.g. WithRunContext, WithLocalTimes) may be supplied; options
// affecting randomness are taken from the checkpoint.
func RestoreTwoState(g *graph.Graph, c *Checkpoint, opts ...Option) (*TwoState, error) {
	if c.Process != "2-state" {
		return nil, fmt.Errorf("mis: checkpoint is %q, want 2-state", c.Process)
	}
	if c.N != g.N() || len(c.States) != g.N() {
		return nil, fmt.Errorf("mis: checkpoint order %d vs graph %d", c.N, g.N())
	}
	rngs, err := snapshot.UnmarshalRngs(c.Rngs, g.N())
	if err != nil {
		return nil, fmt.Errorf("mis: %w", err)
	}
	o, err := restoreOptions(c, opts)
	if err != nil {
		return nil, err
	}
	ord := orderingFor(g, o)
	state := make([]uint8, g.N())
	for u, s := range c.States {
		ns := twoWhite
		if s == 1 {
			ns = twoBlack
		}
		state[ord.NewID(u)] = ns
	}
	core, schedRng, err := restoreCore(g, ord, twoStateRule{}, state, permuteRngs(ord, rngs), o, true, c)
	if err != nil {
		return nil, err
	}
	return &TwoState{core: core, opts: o, g: g, ord: ord, schedRng: schedRng}, nil
}

// Checkpoint snapshots the 3-state process.
func (p *ThreeState) Checkpoint() (*Checkpoint, error) {
	c, err := capture(p.core, p.schedRng, p.opts)
	if err != nil {
		return nil, err
	}
	c.Process = "3-state"
	c.States = unpermuteU8(p.ord, p.core.States())
	return c, nil
}

// RestoreThreeState reconstructs a 3-state process from a checkpoint on g.
func RestoreThreeState(g *graph.Graph, c *Checkpoint, opts ...Option) (*ThreeState, error) {
	if c.Process != "3-state" {
		return nil, fmt.Errorf("mis: checkpoint is %q, want 3-state", c.Process)
	}
	if c.N != g.N() || len(c.States) != g.N() {
		return nil, fmt.Errorf("mis: checkpoint order %d vs graph %d", c.N, g.N())
	}
	rngs, err := snapshot.UnmarshalRngs(c.Rngs, g.N())
	if err != nil {
		return nil, fmt.Errorf("mis: %w", err)
	}
	o, err := restoreOptions(c, opts)
	if err != nil {
		return nil, err
	}
	ord := orderingFor(g, o)
	state := make([]uint8, g.N())
	for u, s := range c.States {
		switch TriState(s) {
		case TriWhite, TriBlack0, TriBlack1:
			state[ord.NewID(u)] = s
		default:
			return nil, fmt.Errorf("mis: invalid 3-state value %d at vertex %d", s, u)
		}
	}
	core, schedRng, err := restoreCore(g, ord, threeStateRule{}, state, permuteRngs(ord, rngs), o, false, c)
	if err != nil {
		return nil, err
	}
	return &ThreeState{core: core, opts: o, g: g, ord: ord, schedRng: schedRng}, nil
}

// Checkpoint snapshots the 3-color process, including its switch.
func (p *ThreeColor) Checkpoint() (*Checkpoint, error) {
	c, err := capture(p.core, nil, p.opts)
	if err != nil {
		return nil, err
	}
	n := p.N()
	levels := make([]uint8, n)
	for i := 0; i < n; i++ {
		levels[p.ord.OldID(i)] = p.rule.clock.Level(i)
	}
	c.Process = "3-color"
	c.States = unpermuteU8(p.ord, p.core.States())
	c.Levels = levels
	c.ClockBits = p.rule.clock.RandomBits()
	c.ZetaLog2 = p.opts.switchZetaLog2
	return c, nil
}

// RestoreThreeColor reconstructs a 3-color process from a checkpoint on g.
func RestoreThreeColor(g *graph.Graph, c *Checkpoint, opts ...Option) (*ThreeColor, error) {
	if c.Process != "3-color" {
		return nil, fmt.Errorf("mis: checkpoint is %q, want 3-color", c.Process)
	}
	n := g.N()
	if c.N != n || len(c.States) != n || len(c.Levels) != n {
		return nil, fmt.Errorf("mis: checkpoint order %d vs graph %d", c.N, n)
	}
	rngs, err := snapshot.UnmarshalRngs(c.Rngs, n)
	if err != nil {
		return nil, fmt.Errorf("mis: %w", err)
	}
	o, err := restoreOptions(c, opts)
	if err != nil {
		return nil, err
	}
	o.switchZetaLog2 = c.ZetaLog2
	if o.switchZetaLog2 == 0 || o.switchZetaLog2 > 64 {
		return nil, fmt.Errorf("mis: checkpoint switch parameter k = %d outside [1, 64]", c.ZetaLog2)
	}
	ord := orderingFor(g, o)
	state := make([]uint8, n)
	for u, s := range c.States {
		switch Color(s) {
		case ColorWhite, ColorBlack, ColorGray:
			state[ord.NewID(u)] = s
		default:
			return nil, fmt.Errorf("mis: invalid color value %d at vertex %d", s, u)
		}
	}
	engineRngs := permuteRngs(ord, rngs)
	rule := &threeColorRule{clock: newRestoredClock(engineGraph(g, ord), c, ord), rngs: engineRngs}
	core, _, err := restoreCore(g, ord, rule, state, engineRngs, o, false, c)
	if err != nil {
		return nil, err
	}
	return &ThreeColor{core: core, rule: rule, opts: o, g: g, ord: ord}, nil
}
