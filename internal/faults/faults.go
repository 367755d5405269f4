// Package faults implements a deterministic, seed-driven DRAM fault model:
// per-burst bit-error rates (with optional per-rank scaling), stuck-at rows,
// and transient read faults, together with row-retirement bookkeeping. The
// controller consults the injector on every read burst and maps the outcome
// onto its SEC-DED ECC, retry/replay and scrub machinery; the injector itself
// is pure state with no notion of time, so identical access sequences under
// identical seeds always produce identical fault sequences (reproducibility
// is a hard requirement — the simulator exists to make experiments
// repeatable, and a fault study that cannot be replayed is worthless).
//
// The rates are per *read burst*, not per bit: a SEC-DED (72,64) code word
// covers 64 data bits, so a 64-byte burst holds eight code words, and what
// the controller observes per burst is simply "no error", "a correctable
// (single-bit) error in some word", or "an uncorrectable (multi-bit) error".
// Collapsing the per-bit process into per-burst probabilities keeps the model
// event-based — no per-bit work happens anywhere.
package faults

import "fmt"

// Outcome classifies what the ECC logic sees on one read burst.
type Outcome int

// Read-burst outcomes, in increasing order of severity.
const (
	// OK means the burst returned clean data.
	OK Outcome = iota
	// Correctable is a single-bit error per SEC-DED word: the controller
	// corrects it in-line (paying a correction latency) and schedules a
	// demand-scrub writeback of the corrected data.
	Correctable
	// Uncorrectable is a multi-bit error SEC-DED can only detect: the
	// response is poisoned and propagated to the requester, never silently
	// consumed.
	Uncorrectable
	// Transient is a whole-burst failure (DDR4 CA-parity style): the burst
	// carried no usable data and must be replayed after a backoff.
	Transient
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case Correctable:
		return "correctable"
	case Uncorrectable:
		return "uncorrectable"
	case Transient:
		return "transient"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// StuckRow pins one DRAM row to a fixed failure mode: every read burst from
// it yields Kind until the row is retired (remapped to a spare).
type StuckRow struct {
	Rank, Bank int
	Row        uint64
	Kind       Outcome
}

// Config describes the fault environment. The zero value injects nothing.
type Config struct {
	// Seed drives the deterministic pseudo-random draw; two runs with the
	// same seed and the same access sequence see identical faults.
	Seed uint64
	// CorrectablePerBurst is the probability a read burst suffers a
	// correctable (single-bit) error.
	CorrectablePerBurst float64
	// UncorrectablePerBurst is the probability of a detectable but
	// uncorrectable (multi-bit) error.
	UncorrectablePerBurst float64
	// TransientPerBurst is the probability of a transient whole-burst
	// failure that is retried rather than corrected.
	TransientPerBurst float64
	// StuckRows lists rows with permanent failure modes.
	StuckRows []StuckRow
}

// Enabled reports whether the configuration injects any fault at all.
func (c Config) Enabled() bool {
	return c.CorrectablePerBurst > 0 || c.UncorrectablePerBurst > 0 ||
		c.TransientPerBurst > 0 || len(c.StuckRows) > 0
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	rates := [3]float64{c.CorrectablePerBurst, c.UncorrectablePerBurst, c.TransientPerBurst}
	sum := 0.0
	for _, r := range rates {
		if r < 0 || r > 1 {
			return fmt.Errorf("faults: rate %v out of [0,1]", r)
		}
		sum += r
	}
	if sum > 1 {
		return fmt.Errorf("faults: rates sum to %v > 1", sum)
	}
	for i, sr := range c.StuckRows {
		if sr.Rank < 0 || sr.Bank < 0 {
			return fmt.Errorf("faults: stuck row %d has negative rank/bank", i)
		}
		switch sr.Kind {
		case Correctable, Uncorrectable, Transient:
		default:
			return fmt.Errorf("faults: stuck row %d has kind %s", i, sr.Kind)
		}
	}
	return nil
}

// rowKey identifies one physical row for the stuck/retired maps.
type rowKey struct {
	rank, bank int
	row        uint64
}

// Injector is the runtime fault source. It is not safe for concurrent use,
// matching the single-threaded simulation kernel.
type Injector struct {
	cfg     Config
	state   uint64
	stuck   map[rowKey]Outcome
	retired map[rowKey]bool
	draws   uint64
}

// NewInjector validates cfg and builds an injector.
func NewInjector(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{
		cfg:     cfg,
		state:   cfg.Seed,
		stuck:   make(map[rowKey]Outcome, len(cfg.StuckRows)),
		retired: make(map[rowKey]bool),
	}
	for _, sr := range cfg.StuckRows {
		in.stuck[rowKey{sr.Rank, sr.Bank, sr.Row}] = sr.Kind
	}
	return in, nil
}

// next advances the splitmix64 generator one step.
func (in *Injector) next() uint64 {
	in.state += 0x9e3779b97f4a7c15
	z := in.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	in.draws++
	return z ^ (z >> 31)
}

// uniform returns a deterministic draw in [0,1).
func (in *Injector) uniform() float64 {
	return float64(in.next()>>11) / float64(1<<53)
}

// Draws returns how many random draws have been consumed — a cheap
// fingerprint for reproducibility checks.
func (in *Injector) Draws() uint64 { return in.draws }

// OnReadBurst decides the fate of one read burst from (rank, bank, row).
// Retired rows are remapped to healthy spares and always return clean data;
// stuck rows return their configured failure mode; everything else draws
// from the configured per-burst rates.
func (in *Injector) OnReadBurst(rank, bank int, row uint64) Outcome {
	key := rowKey{rank, bank, row}
	if in.retired[key] {
		return OK
	}
	if kind, ok := in.stuck[key]; ok {
		return kind
	}
	u := in.uniform()
	c, uc, tr := in.cfg.CorrectablePerBurst, in.cfg.UncorrectablePerBurst, in.cfg.TransientPerBurst
	switch {
	case u < c:
		return Correctable
	case u < c+uc:
		return Uncorrectable
	case u < c+uc+tr:
		return Transient
	}
	return OK
}

// RetireRow remaps a row to a spare: subsequent reads from it return clean
// data regardless of stuck-at configuration or random draws. It reports
// whether the row was newly retired.
func (in *Injector) RetireRow(rank, bank int, row uint64) bool {
	key := rowKey{rank, bank, row}
	if in.retired[key] {
		return false
	}
	// Retirement is the fault path's last resort (retry limit exhausted);
	// fault-free steady state — the condition the zero-alloc gates run
	// under — never reaches it.
	in.retired[key] = true
	return true
}

// RetiredRows returns how many rows have been retired so far.
func (in *Injector) RetiredRows() int { return len(in.retired) }
