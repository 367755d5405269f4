package trafficgen

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Checkpoint support for the generators. math/rand sources are not
// serializable, so pattern state is captured as (seed, draw counts) and
// restore replays the draws: every replayed call uses the same method and
// bound as the live run, so the post-restore RNG stream is bit-identical.

// PatternState is the serialized image of any built-in pattern. A single
// struct covers all four: unused fields stay zero and are omitted.
type PatternState struct {
	// Init is false while the pattern's lazy initializer has not run yet
	// (no request was ever issued); restore then leaves the pattern fresh.
	Init bool `json:"init,omitempty"`
	// Next is the next linear address (Linear).
	Next mem.Addr `json:"next,omitempty"`
	// Bank/Row/Step are the DRAM-aware walk position (DRAMAware).
	Bank int    `json:"bank,omitempty"`
	Row  uint64 `json:"row,omitempty"`
	Step uint64 `json:"step,omitempty"`
	// Offset is the stride position (Strided).
	Offset uint64 `json:"offset,omitempty"`
	// RNGDraws counts address-RNG consultations (Random, Bursty).
	RNGDraws uint64 `json:"rngDraws,omitempty"`
	// MixDraws counts read/write-mix RNG consultations.
	MixDraws uint64 `json:"mixDraws,omitempty"`
	// ShapeDraws counts gap-RNG consultations and InBurst the position in
	// the current on-period (Bursty).
	ShapeDraws uint64 `json:"shapeDraws,omitempty"`
	InBurst    int    `json:"inBurst,omitempty"`
}

// StatefulPattern is implemented by patterns that can checkpoint themselves.
// Patterns lacking it (e.g. the trace player) make the enclosing generator
// un-checkpointable, which surfaces as a clean save-time error.
type StatefulPattern interface {
	Pattern
	// PatternState captures the pattern's position.
	PatternState() PatternState
	// RestorePattern rebuilds the position on a freshly constructed pattern.
	RestorePattern(st PatternState) error
}

// PatternState implements StatefulPattern.
func (l *Linear) PatternState() PatternState {
	st := PatternState{Init: l.mix != nil, Next: l.next}
	if l.mix != nil {
		st.MixDraws = l.mix.draws
	}
	return st
}

// RestorePattern implements StatefulPattern.
func (l *Linear) RestorePattern(st PatternState) error {
	if !st.Init {
		l.mix = nil
		return nil
	}
	l.mix = &readWriteMix{rng: rand.New(rand.NewSource(l.Seed)), percent: l.ReadPercent}
	l.mix.discard(st.MixDraws)
	l.next = st.Next
	return nil
}

// PatternState implements StatefulPattern.
func (r *Random) PatternState() PatternState {
	st := PatternState{Init: r.rng != nil, RNGDraws: r.draws}
	if r.mix != nil {
		st.MixDraws = r.mix.draws
	}
	return st
}

// RestorePattern implements StatefulPattern.
func (r *Random) RestorePattern(st PatternState) error {
	if !st.Init {
		r.rng, r.mix, r.draws = nil, nil, 0
		return nil
	}
	r.rng = rand.New(rand.NewSource(r.Seed))
	r.mix = &readWriteMix{rng: rand.New(rand.NewSource(r.Seed + 1)), percent: r.ReadPercent}
	if r.Align == 0 || r.End <= r.Start {
		return fmt.Errorf("trafficgen: random pattern restore: invalid range/alignment")
	}
	span := uint64(r.End-r.Start) / r.Align
	for i := uint64(0); i < st.RNGDraws; i++ {
		r.rng.Int63n(int64(span))
	}
	r.draws = st.RNGDraws
	r.mix.discard(st.MixDraws)
	return nil
}

// PatternState implements StatefulPattern.
func (d *DRAMAware) PatternState() PatternState {
	st := PatternState{Init: d.mix != nil, Bank: d.bank, Row: d.row, Step: d.step}
	if d.mix != nil {
		st.MixDraws = d.mix.draws
	}
	return st
}

// RestorePattern implements StatefulPattern.
func (d *DRAMAware) RestorePattern(st PatternState) error {
	if !st.Init {
		d.mix = nil
		return nil
	}
	d.mix = &readWriteMix{rng: rand.New(rand.NewSource(d.Seed)), percent: d.ReadPercent}
	d.mix.discard(st.MixDraws)
	d.bank, d.row, d.step = st.Bank, st.Row, st.Step
	return nil
}

// PatternState implements StatefulPattern.
func (b *Bursty) PatternState() PatternState {
	st := PatternState{Init: b.rng != nil, RNGDraws: b.draws, ShapeDraws: b.shapeDraws, InBurst: b.inBurst}
	if b.mix != nil {
		st.MixDraws = b.mix.draws
	}
	return st
}

// RestorePattern implements StatefulPattern.
func (b *Bursty) RestorePattern(st PatternState) error {
	if !st.Init {
		b.rng, b.shape, b.mix = nil, nil, nil
		b.draws, b.shapeDraws, b.inBurst = 0, 0, 0
		return nil
	}
	if err := b.Validate(); err != nil {
		return fmt.Errorf("trafficgen: bursty pattern restore: %w", err)
	}
	b.rng, b.shape, b.mix = nil, nil, nil
	b.init()
	span := uint64(b.End-b.Start) / b.Align
	for i := uint64(0); i < st.RNGDraws; i++ {
		b.rng.Int63n(int64(span))
	}
	b.draws = st.RNGDraws
	for i := uint64(0); i < st.ShapeDraws; i++ {
		b.shape.Int63n(int64(b.OffTime))
	}
	b.shapeDraws = st.ShapeDraws
	b.mix.discard(st.MixDraws)
	b.inBurst = st.InBurst
	return nil
}

// PatternState implements StatefulPattern.
func (s *Strided) PatternState() PatternState {
	st := PatternState{Init: s.mix != nil, Offset: s.offset}
	if s.mix != nil {
		st.MixDraws = s.mix.draws
	}
	return st
}

// RestorePattern implements StatefulPattern.
func (s *Strided) RestorePattern(st PatternState) error {
	if !st.Init {
		s.mix = nil
		return nil
	}
	s.mix = &readWriteMix{rng: rand.New(rand.NewSource(s.Seed)), percent: s.ReadPercent}
	s.mix.discard(st.MixDraws)
	s.offset = st.Offset
	return nil
}

// genState is the generator's serialized image. Stats live in the registry
// section, not here.
type genState struct {
	Issued      uint64         `json:"issued"`
	Outstanding int            `json:"outstanding"`
	Blocked     int            `json:"blocked"` // packet ref, -1 when none
	NextAllowed sim.Tick       `json:"nextAllowed"`
	Tick        sim.EventState `json:"tick"`
	Pattern     PatternState   `json:"pattern"`
}

// CheckpointConfig implements checkpoint.Configured: the generator's Config
// plus its pattern's type and parameters (a pattern's exported fields are
// its configuration; its position is unexported and travels in the section).
func (g *Generator) CheckpointConfig() any {
	return struct {
		Config
		PatternType string
		Pattern     Pattern
	}{g.cfg, fmt.Sprintf("%T", g.pattern), g.pattern}
}

// CheckpointSave implements checkpoint.Checkpointable.
func (g *Generator) CheckpointSave(pt mem.PacketTable) (any, error) {
	sp, ok := g.pattern.(StatefulPattern)
	if !ok {
		return nil, fmt.Errorf("trafficgen: pattern %T does not support checkpointing", g.pattern)
	}
	st := genState{
		Issued:      g.issued,
		Outstanding: g.outstanding,
		Blocked:     -1,
		NextAllowed: g.nextAllowed,
		Tick:        g.tick.Capture(),
		Pattern:     sp.PatternState(),
	}
	if g.blocked != nil {
		st.Blocked = pt.PacketRef(g.blocked)
	}
	return st, nil
}

// CheckpointRestore implements checkpoint.Checkpointable on a freshly
// constructed generator.
func (g *Generator) CheckpointRestore(pl mem.PacketLookup, rs sim.Restorer, data []byte) error {
	var st genState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("trafficgen: restore: %w", err)
	}
	sp, ok := g.pattern.(StatefulPattern)
	if !ok {
		return fmt.Errorf("trafficgen: pattern %T does not support checkpointing", g.pattern)
	}
	if err := sp.RestorePattern(st.Pattern); err != nil {
		return err
	}
	if g.tick.Scheduled() {
		g.k.Deschedule(g.tick)
	}
	g.issued = st.Issued
	g.outstanding = st.Outstanding
	g.nextAllowed = st.NextAllowed
	g.blocked = nil
	if st.Blocked >= 0 {
		g.blocked = pl.PacketByRef(st.Blocked)
	}
	if st.Tick.Scheduled {
		when := st.Tick.When
		rs.Defer(st.Tick.Seq, func() { g.k.Schedule(g.tick, when) })
	}
	return nil
}
