// Package cliconfig is what the command-line tools share. The flag groups
// register a coherent set of flags on a FlagSet with the names and defaults
// the tools have always used, and offer the parsing / resolution helpers every
// main() would otherwise duplicate (spec lookup, mapping and page-policy
// parsing, traffic-pattern construction, the supervisor configuration, the
// observability knobs). The front door at the end is the one path the figure
// tools (bwsweep, latdist, speedup, powercmp, fullsys, explore) take from
// argv to exit status: parse, poll for SIGINT/SIGTERM between points, print
// a partial result, write -json atomically, exit 130.
package cliconfig

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/supervisor"
	"repro/internal/trafficgen"
)

// --- Spec group ------------------------------------------------------------

// Spec is the -spec / -standard flag group.
type Spec struct {
	Name string
	// Standard, when set, picks the representative preset of an interface
	// family ("ddr4", "lpddr5", ...) and overrides -spec.
	Standard string
}

// AddSpec registers -spec (with the given default) and -standard.
func AddSpec(fs *flag.FlagSet, def string) *Spec {
	s := &Spec{}
	fs.StringVar(&s.Name, "spec", def, "memory spec name (see -list)")
	fs.StringVar(&s.Standard, "standard", "",
		"memory standard ("+strings.Join(dram.Standards(), ", ")+"); picks that family's representative preset and overrides -spec")
	return s
}

// Resolve looks the selected preset up, case-insensitively: the named
// preset, replaced by the family's representative when -standard was given.
// -spec is checked either way, so a mistyped name is never silently
// overridden.
func (s *Spec) Resolve() (dram.Spec, error) {
	sp, err := dram.ByName(s.Name)
	if err != nil {
		return dram.Spec{}, fmt.Errorf("unknown spec %q (use -list)", s.Name)
	}
	if s.Standard != "" {
		if sp, err = dram.ByStandard(s.Standard); err != nil {
			return dram.Spec{}, fmt.Errorf("%w (use -list)", err)
		}
	}
	return sp, nil
}

// AddStandard registers a lone -standard flag for tools that run fixed
// paper experiments (bwsweep, latdist, speedup): the experiment's built-in
// device stays the default, and a set flag swaps in a family's
// representative preset.
func AddStandard(fs *flag.FlagSet) *string {
	return fs.String("standard", "",
		"override the experiment's device with a memory standard's representative preset ("+
			strings.Join(dram.Standards(), ", ")+")")
}

// ResolveStandard applies an AddStandard flag value to a device slot: the
// slot is left untouched when the flag was not given.
func ResolveStandard(std string, slot *dram.Spec) error {
	if std == "" {
		return nil
	}
	sp, err := dram.ByStandard(std)
	if err != nil {
		return err
	}
	*slot = sp
	return nil
}

// ListSpecs prints the available specs, one per line.
func ListSpecs(w io.Writer) {
	for _, s := range dram.Presets() {
		fmt.Fprintf(w, "%-18s %-7s %3d-bit, BL%d, %d banks x %d ranks, %.1f GB/s peak\n",
			s.Name, s.Standard(), s.Org.BusWidthBits, s.Org.BurstLength,
			s.Org.BanksPerRank, s.Org.RanksPerChannel, s.PeakBandwidth()/1e9)
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
	switch p.Page {
	case "open":
		return core.Open, nil
	case "open-adaptive":
		return core.OpenAdaptive, nil
	case "closed":
		return core.Closed, nil
	case "closed-adaptive":
		return core.ClosedAdaptive, nil
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
	ITTNs       int64
	Stride      uint64
	Banks       int
	BurstOn     int
	BurstOffNs  int64
	Seed        int64
}

// AddTraffic registers the traffic flags with the runner's defaults.
func AddTraffic(fs *flag.FlagSet, defRequests uint64) *Traffic {
	t := &Traffic{}
	fs.StringVar(&t.Pattern, "pattern", "linear", "traffic: linear, random, dramaware, bursty")
	fs.IntVar(&t.Reads, "reads", 100, "read percentage (0-100)")
	t.requests = AddCount(fs, "requests", defRequests, "number of requests")
	fs.Uint64Var(&t.Bytes, "bytes", 64, "request size in bytes")
	fs.IntVar(&t.Outstanding, "outstanding", 32, "max outstanding requests")
	fs.Int64Var(&t.ITTNs, "itt", 0, "inter-transaction time in ns (0 = saturate)")
	fs.Uint64Var(&t.Stride, "stride", 4, "dramaware: stride in bursts")
	fs.IntVar(&t.Banks, "banks", 4, "dramaware: banks targeted")
	fs.IntVar(&t.BurstOn, "burst-on", 16, "bursty: requests per on-period")
	fs.Int64Var(&t.BurstOffNs, "burst-off-ns", 2000, "bursty: mean idle gap between bursts in ns")
	fs.Int64Var(&t.Seed, "seed", 1, "pattern seed")
	return t
}

// GenConfig assembles the generator configuration.
func (t *Traffic) GenConfig() trafficgen.Config {
	return trafficgen.Config{
		RequestBytes:     t.Bytes,
		MaxOutstanding:   t.Outstanding,
		Count:            *t.requests,
		InterTransaction: sim.Tick(t.ITTNs) * sim.Nanosecond,
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
			OffTime:  sim.Tick(t.BurstOffNs) * sim.Nanosecond,
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
// refused at parse time with the flag named, instead of spinning forever.
func AddCount(fs *flag.FlagSet, name string, def uint64, usage string) *uint64 {
	n := def
	fs.Func(name, fmt.Sprintf("%s (at least 1; default %d)", usage, def), func(s string) error {
		v, err := strconv.ParseUint(s, 0, 64)
		if err == nil && v == 0 {
			err = errors.New("must be at least 1 (a run of 0 would never finish)")
		}
		if err == nil {
			n = v
		}
		return err
	})
	return &n
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
	fs.Func("channels", "DRAM channels, behind a crossbar when > 1 (a power of two; default 1)", func(s string) error {
		n, err := strconv.Atoi(s)
		if err != nil {
			return err
		}
		if n < 1 {
			return fmt.Errorf("need at least one channel")
		}
		channels = n
		return nil
	})
	return &channels
}

// --- Checkpoint group ------------------------------------------------------

// Checkpoint is the supervision/checkpoint flag group.
type Checkpoint struct {
	Path    string
	EveryNs int64
	Resume  bool
}

// AddCheckpoint registers the checkpoint flags.
func AddCheckpoint(fs *flag.FlagSet) *Checkpoint {
	c := &Checkpoint{}
	fs.StringVar(&c.Path, "checkpoint", "", "checkpoint file; written periodically, at interrupt, and at completion")
	fs.Int64Var(&c.EveryNs, "checkpoint-every", 0, "checkpoint every N ns of simulated time (0 = only final/interrupt)")
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
	if c.EveryNs != 0 && c.Path == "" {
		return fmt.Errorf("-checkpoint-every needs -checkpoint")
	}
	if c.EveryNs < 0 {
		return fmt.Errorf("negative checkpoint interval")
	}
	return nil
}

// Config assembles the supervisor configuration.
func (c *Checkpoint) Config(notify <-chan os.Signal) supervisor.Config {
	return supervisor.Config{
		Checkpoint: c.Path,
		Every:      sim.Tick(c.EveryNs) * sim.Nanosecond,
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
	SampleNs  int64
}

// AddObs registers the observability flags.
func AddObs(fs *flag.FlagSet) *Obs {
	o := &Obs{}
	fs.StringVar(&o.TracePath, "trace", "", "write a Chrome/Perfetto trace of the run to this file")
	fs.StringVar(&o.HTTPAddr, "obs-http", "", "serve live stats snapshots and pprof on this address (e.g. localhost:6060)")
	fs.Int64Var(&o.SampleNs, "obs-sample", 0, "sample controller state and bandwidth every N ns of simulated time and print the bandwidth over time (0 = off; implied 1ms by -obs-http)")
	return o
}

// Tracing reports whether a trace file was requested.
func (o *Obs) Tracing() bool { return o.TracePath != "" }

// Sampling reports whether periodic sampling is active (after Validate has
// applied the -obs-http implication).
func (o *Obs) Sampling() bool { return o.SampleNs > 0 }

// Validate checks the observability flags against the run mode and applies
// the -obs-http sampling implication. The trace is checkpoint-compatible
// (the sink is a checkpoint component); the sampler and the live endpoint
// schedule host-driven work no component hook serializes, so they are
// rejected alongside checkpointing.
func (o *Obs) Validate(checkpointing bool) error {
	if o.SampleNs < 0 {
		return fmt.Errorf("negative -obs-sample interval")
	}
	if o.HTTPAddr != "" && o.SampleNs == 0 {
		o.SampleNs = 1_000_000 // 1 ms of simulated time between snapshots
	}
	if checkpointing && o.SampleNs > 0 {
		return fmt.Errorf("checkpointing does not support -obs-sample/-obs-http (drop them or the -checkpoint flags)")
	}
	return nil
}

// --- Front door ------------------------------------------------------------

// Parse parses args into fs. It reports whether the tool should go on: not
// after -h (usage printed, nil error) and not after a bad flag (the error).
func Parse(fs *flag.FlagSet, args []string) (bool, error) {
	err := fs.Parse(args)
	if errors.Is(err, flag.ErrHelp) {
		return false, nil
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

// WriteResultJSON writes a canonical result (experiments.NewSweepJSON,
// NewFig9JSON) to path and says so on out; "" writes nothing. The file is
// replaced atomically (temp+rename, the checkpoint files' pattern), so a crash
// mid-write can never leave a torn one.
func WriteResultJSON(out io.Writer, path string, v any) error {
	if path == "" {
		return nil
	}
	enc, err := experiments.EncodeResultJSON(v)
	if err == nil {
		err = checkpoint.WriteFileAtomic(path, enc)
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
// the study return what it has; then it runs the tool and exits 0, 130 (the
// conventional SIGINT status) for an interrupted run whose partial results are
// already out, or 1 with the error on stderr.
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
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil:
	case errors.Is(err, experiments.ErrInterrupted):
		os.Exit(130)
	default:
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		os.Exit(1)
	}
}
