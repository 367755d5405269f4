// Package cliconfig is what the command-line tools share. The flag groups
// register a coherent set of flags on a FlagSet with the names and defaults
// the tools have always used, and offer the parsing / resolution helpers every
// main() would otherwise duplicate (the device listing, mapping and page-policy
// parsing, traffic-pattern construction, the supervisor configuration, the
// observability knobs). The front door at the end is the one path `paper`
// takes from argv to exit status: parse, poll for SIGINT/SIGTERM between
// points, print a partial result, write -json atomically, exit 130; Exit is
// the exit policy both tools share.
package cliconfig

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/supervisor"
	"repro/internal/trafficgen"
)

// --- Device listing ------------------------------------------------------

// ListSpecs prints the available specs, one per line; the preset a
// standard's keyword names says so: "(-spec ddr4)".
func ListSpecs(w io.Writer) {
	keyword := map[string]string{}
	for _, k := range dram.Standards() {
		s, _ := dram.ByName(k) // Standards lists only keywords ByName resolves
		keyword[s.Name] = " (-spec " + k + ")"
	}
	for _, s := range dram.Presets() {
		fmt.Fprintf(w, "%-18s %-7s %3d-bit, BL%d, %d banks x %d ranks, %.1f GB/s peak%s\n",
			s.Name, s.Standard(), s.Org.BusWidthBits, s.Org.BurstLength,
			s.Org.BanksPerRank, s.Org.RanksPerChannel, s.PeakBandwidth()/1e9, keyword[s.Name])
	}
}

// --- Policy group ----------------------------------------------------------

// Policy is the controller-policy flag group: -model, -mapping, -page and
// -sched.
type Policy struct {
	Model   string
	Mapping string
	Page    string
	Sched   string
}

// AddPolicy registers the policy flags.
func AddPolicy(fs *flag.FlagSet) *Policy {
	p := &Policy{}
	fs.StringVar(&p.Model, "model", "event", "controller model: event or cycle")
	fs.StringVar(&p.Mapping, "mapping", "RoRaBaCoCh", "address mapping: RoRaBaCoCh, RoRaBaChCo, RoCoRaBaCh")
	fs.StringVar(&p.Page, "page", "open", "page policy: open, open-adaptive, closed, closed-adaptive")
	fs.StringVar(&p.Sched, "sched", "frfcfs", "scheduler: fcfs or frfcfs")
	return p
}

// ParseMapping resolves the -mapping name.
func (p *Policy) ParseMapping() (dram.Mapping, error) {
	return dram.ParseMapping(p.Mapping)
}

// CorePage resolves -page to the event-based controller's policy enum.
func (p *Policy) CorePage() (core.PagePolicy, error) {
	for _, pp := range []core.PagePolicy{core.Open, core.OpenAdaptive, core.Closed, core.ClosedAdaptive} {
		if pp.String() == p.Page {
			return pp, nil
		}
	}
	return 0, fmt.Errorf("unknown page policy %q", p.Page)
}

// --- Traffic group ---------------------------------------------------------

// Traffic is the synthetic-traffic flag group of the full runner.
type Traffic struct {
	Pattern     string
	Reads       int
	requests    *uint64
	Bytes       uint64
	Outstanding int
	ITT         *sim.Tick
	Stride      uint64
	Banks       int
	BurstOn     int
	BurstOff    *sim.Tick
	Seed        int64
}

// AddTraffic registers the traffic flags with the runner's defaults.
func AddTraffic(fs *flag.FlagSet, defRequests uint64) *Traffic {
	t := &Traffic{}
	fs.StringVar(&t.Pattern, "pattern", "linear", "traffic: linear, random, dramaware, bursty")
	t.Reads = 100
	fs.Var(checked[int]{p: &t.Reads, parse: func(s string) (int, error) {
		v, err := strconv.ParseInt(s, 0, 64)
		if err == nil && (v < 0 || v > 100) {
			err = errors.New("must be a percentage from 0 to 100")
		}
		return int(v), err
	}}, "reads", "read percentage (0-100)")
	t.requests = AddCount(fs, "requests", defRequests, "number of requests")
	fs.Uint64Var(&t.Bytes, "bytes", 64, "request size in bytes")
	fs.IntVar(&t.Outstanding, "outstanding", 32, "max outstanding requests")
	t.ITT = AddNanoseconds(fs, "itt", 0, "inter-transaction time in ns (0 = saturate)")
	fs.Uint64Var(&t.Stride, "stride", 4, "dramaware: stride in bursts")
	fs.IntVar(&t.Banks, "banks", 4, "dramaware: banks targeted")
	fs.IntVar(&t.BurstOn, "burst-on", 16, "bursty: requests per on-period")
	t.BurstOff = AddNanoseconds(fs, "burst-off-ns", 2000, "bursty: mean idle gap between bursts in ns")
	fs.Int64Var(&t.Seed, "seed", 1, "pattern seed")
	return t
}

// GenConfig assembles the generator configuration.
func (t *Traffic) GenConfig() trafficgen.Config {
	return trafficgen.Config{
		RequestBytes:     t.Bytes,
		MaxOutstanding:   t.Outstanding,
		Count:            *t.requests,
		InterTransaction: *t.ITT,
	}
}

// BuildPattern constructs the selected traffic pattern. channels sizes the
// dramaware pattern's address decoder (1 for a single-channel run).
func (t *Traffic) BuildPattern(spec dram.Spec, mapping dram.Mapping, channels int) (trafficgen.Pattern, error) {
	switch t.Pattern {
	case "linear":
		return &trafficgen.Linear{
			Start: 0, End: 1 << 28, Step: t.Bytes,
			ReadPercent: t.Reads, Seed: t.Seed,
		}, nil
	case "random":
		return &trafficgen.Random{
			Start: 0, End: 1 << 28, Align: t.Bytes,
			ReadPercent: t.Reads, Seed: t.Seed,
		}, nil
	case "dramaware":
		dec, err := dram.NewDecoder(spec.Org, mapping, channels)
		if err != nil {
			return nil, err
		}
		p := &trafficgen.DRAMAware{
			Decoder: dec, StrideBursts: t.Stride, Banks: t.Banks,
			ReadPercent: t.Reads, Seed: t.Seed,
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		return p, nil
	case "bursty":
		p := &trafficgen.Bursty{
			Start: 0, End: 1 << 28, Align: t.Bytes,
			ReadPercent: t.Reads, Seed: t.Seed,
			BurstLen: t.BurstOn,
			OffTime:  *t.BurstOff,
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		return p, nil
	}
	return nil, fmt.Errorf("unknown pattern %q", t.Pattern)
}

// AddCount registers a flag counting the work of a run (-requests, -memops).
// The tools run to completion, so 0 — "unlimited" to trafficgen and cpu — is
// refused at parse time with the flag named, instead of spinning forever. A
// def of 0 leaves the count 0 until the flag is set, for a tool whose default
// depends on another flag; its usage then names that default itself.
func AddCount(fs *flag.FlagSet, name string, def uint64, usage string) *uint64 {
	n := def
	fs.Var(checked[uint64]{p: &n, parse: func(s string) (uint64, error) {
		v, err := strconv.ParseUint(s, 0, 64)
		if err == nil && v == 0 {
			err = errors.New("must be at least 1 (a run of 0 would never finish)")
		}
		return v, err
	}}, name, usage+" (at least 1)")
	return &n
}

// AddNanoseconds registers a flag counting nanoseconds of simulated time and
// returns its value as ticks, the one crossing from nanoseconds to ticks the
// tools make. A negative count, or one whose ticks would overflow sim.Tick
// (above sim.MaxTick/sim.Nanosecond), is refused at parse time with the flag
// named, instead of wrapping to some other duration.
func AddNanoseconds(fs *flag.FlagSet, name string, def int64, usage string) *sim.Tick {
	t := sim.Tick(def) * sim.Nanosecond
	parse := func(s string) (sim.Tick, error) {
		v, err := strconv.ParseInt(s, 0, 64)
		switch {
		case err != nil:
			return 0, err
		case v < 0:
			return 0, errors.New("must not be negative")
		case v > int64(sim.MaxTick/sim.Nanosecond):
			return 0, fmt.Errorf("must be at most %d ns, the simulated clock's range", sim.MaxTick/sim.Nanosecond)
		}
		return sim.Tick(v) * sim.Nanosecond, nil
	}
	show := func(t sim.Tick) string { return strconv.FormatInt(int64(t/sim.Nanosecond), 10) }
	fs.Var(checked[sim.Tick]{&t, parse, show}, name, usage)
	return &t
}

// checked is a flag.Value over *p: Set stores what parse accepts, and String
// prints the value (by show, when set), so a checkpoint's recipe can record
// it. The zero value prints as "", which the usage text then leaves out.
type checked[T comparable] struct {
	p     *T
	parse func(string) (T, error)
	show  func(T) string
}

func (c checked[T]) Set(s string) error {
	v, err := c.parse(s)
	if err == nil {
		*c.p = v
	}
	return err
}

func (c checked[T]) String() string {
	var zero T
	switch {
	case c.p == nil || *c.p == zero:
		return ""
	case c.show != nil:
		return c.show(*c.p)
	}
	return fmt.Sprint(*c.p)
}

// --- Channels flag ---------------------------------------------------------

// AddChannels registers -channels (default 1): the number of DRAM channels,
// each its own controller, behind a crossbar on the one kernel when there is
// more than one — a parameter of the tool's one wiring, not a second mode, so
// it composes with every other flag. A count below one is a parse error
// here, for every tool; a count that is not a power of two is refused later
// by dram.NewDecoder.
func AddChannels(fs *flag.FlagSet) *int {
	channels := 1
	fs.Var(checked[int]{p: &channels, parse: func(s string) (int, error) {
		n, err := strconv.Atoi(s)
		if err == nil && n < 1 {
			err = errors.New("need at least one channel")
		}
		return n, err
	}}, "channels", "DRAM channels, behind a crossbar when > 1 (a power of two)")
	return &channels
}

// --- Checkpoint group ------------------------------------------------------

// Checkpoint is the supervision/checkpoint flag group.
type Checkpoint struct {
	Path   string
	Every  *sim.Tick
	Resume bool
}

// AddCheckpoint registers the checkpoint flags.
func AddCheckpoint(fs *flag.FlagSet) *Checkpoint {
	c := &Checkpoint{}
	fs.StringVar(&c.Path, "checkpoint", "", "checkpoint file; written periodically, at interrupt, and at completion")
	c.Every = AddNanoseconds(fs, "checkpoint-every", 0, "checkpoint every N ns of simulated time (0 = only final/interrupt)")
	fs.BoolVar(&c.Resume, "resume", false, "resume from -checkpoint if the file exists")
	return c
}

// Enabled reports whether any checkpoint/resume behaviour was requested.
func (c *Checkpoint) Enabled() bool { return c.Path != "" || c.Resume }

// Validate rejects inconsistent supervision flags.
func (c *Checkpoint) Validate() error {
	if c.Resume && c.Path == "" {
		return fmt.Errorf("-resume needs -checkpoint")
	}
	if *c.Every != 0 && c.Path == "" {
		return fmt.Errorf("-checkpoint-every needs -checkpoint")
	}
	return nil
}

// Config assembles the supervisor configuration; the caller adds the run's
// recipe and statistics.
func (c *Checkpoint) Config(notify <-chan os.Signal) supervisor.Config {
	return supervisor.Config{
		Checkpoint: c.Path,
		Every:      *c.Every,
		Resume:     c.Resume,
		Notify:     notify,
		Log:        os.Stderr,
	}
}

// --- Observability group ---------------------------------------------------

// Obs is the observability flag group: Perfetto trace output, the live HTTP
// endpoint, and periodic state sampling.
type Obs struct {
	TracePath string
	HTTPAddr  string
	Sample    *sim.Tick
}

// AddObs registers the observability flags.
func AddObs(fs *flag.FlagSet) *Obs {
	o := &Obs{}
	fs.StringVar(&o.TracePath, "trace", "", "write a Chrome/Perfetto trace of the run to this file")
	fs.StringVar(&o.HTTPAddr, "obs-http", "", "serve live stats snapshots and pprof on this address (e.g. localhost:6060)")
	o.Sample = AddNanoseconds(fs, "obs-sample", 0, "sample controller state and bandwidth every N ns of simulated time and print the bandwidth over time (0 = off; implied 1ms by -obs-http)")
	return o
}

// Tracing reports whether a trace file was requested.
func (o *Obs) Tracing() bool { return o.TracePath != "" }

// Sampling reports whether periodic sampling is active (after Resolve has
// applied the -obs-http implication).
func (o *Obs) Sampling() bool { return *o.Sample > 0 }

// Resolve applies the -obs-http sampling implication: a live endpoint with
// no -obs-sample samples every millisecond of simulated time. Afterwards
// *Sample is the effective interval, the one a checkpoint's recipe records.
func (o *Obs) Resolve() {
	if o.HTTPAddr != "" && *o.Sample == 0 {
		*o.Sample = sim.Millisecond // of simulated time between snapshots
	}
}

// --- Front door ------------------------------------------------------------

// Parse parses args into fs. It reports whether the tool should go on: not
// after -h (usage printed, nil error), not after a bad flag and not after a
// word that is no flag (the error). Flag parsing stops at such a word, so the
// flags after it would otherwise be dropped without a word.
func Parse(fs *flag.FlagSet, args []string) (bool, error) {
	err := fs.Parse(args)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return false, nil
	case err == nil && fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q: the tool takes flags only", fs.Arg(0))
	}
	return err == nil, err
}

// Partial reports whether a study left something to print: all of it (a nil
// error) or, interrupted (ErrInterrupted), the part it finished — then the
// header line on out says how far it got (progress and its arguments, as for
// Printf) and the tool goes on to print the table and return err itself, for
// Main to exit 130. On any other error there is nothing to print.
func Partial(out io.Writer, err error, progress string, args ...any) bool {
	if errors.Is(err, experiments.ErrInterrupted) {
		fmt.Fprintf(out, "interrupted; partial results (%s):\n", fmt.Sprintf(progress, args...))
		return true
	}
	return err == nil
}

// WriteResultJSON writes a study's table as JSON to path and says so on out;
// "" writes nothing. The file is replaced atomically (temp+rename, the
// checkpoint files' pattern), so a crash mid-write never leaves a torn one.
func WriteResultJSON(out io.Writer, path string, v any) error {
	if path == "" {
		return nil
	}
	enc, err := experiments.EncodeResultJSON(v)
	if err == nil {
		err = supervisor.WriteFileAtomic(path, enc)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "result written to %s\n", path)
	return nil
}

// Main is a figure tool's main(): it points *stop — what the tool's run hands
// to experiments.Runner.Stop, and its tests point at a counter — at
// SIGINT/SIGTERM, so that a signal lets the point being measured finish and
// the study return what it has; then it runs the tool and exits by Exit.
func Main(tool string, stop *func() bool, run func(args []string, out io.Writer) error) {
	notify, _ := supervisor.NotifySignals() // registered for the life of the process
	fired := false
	*stop = func() bool {
		select {
		case sig := <-notify:
			fired = true
			fmt.Fprintf(os.Stderr, "%s: %v: finishing current point, flushing partial results\n", tool, sig)
		default:
		}
		return fired
	}
	Exit(tool, run(os.Args[1:], os.Stdout))
}

// Exit ends a tool's process by its run's error: 0 for none, 130 (the
// conventional SIGINT status) for an interrupted run whose partial results
// are already out, else 1 with the error on stderr.
func Exit(tool string, err error) {
	switch {
	case err == nil:
		os.Exit(0)
	case errors.Is(err, experiments.ErrInterrupted):
		os.Exit(130)
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(1)
}
