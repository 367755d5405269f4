// Command dramctrl is the general-purpose runner: it assembles a traffic
// source (synthetic pattern or trace file) over one DRAM controller (event-
// or cycle-based) — or, with -channels N, a generator behind a crossbar over
// N controllers, each on its own kernel, stepped in turn on the calling
// goroutine — with every policy knob exposed as a flag, runs to completion,
// and reports bandwidth, latency, power and (optionally) the full statistics
// dump — the repository's equivalent of driving a gem5 memory configuration
// from the command line. -channels only selects which topology gets wired;
// flags, supervision, trace lifecycle and report are one path.
//
// Runs are supervised: -checkpoint enables periodic, checksummed snapshots
// (-checkpoint-every / -checkpoint-wall), -resume continues a run from its
// last checkpoint bit-identically, and SIGINT/SIGTERM drain the current
// quantum, write a final checkpoint, flush statistics, and exit 130. A
// crashed segment (watchdog trip, injected panic) dumps a postmortem
// checkpoint and is retried from the last good one up to -max-retries times.
//
// Observability: -trace writes a Chrome/Perfetto trace of the run (packet
// lifecycles, per-bank command spans, refresh windows); -obs-http serves
// live statistics snapshots and pprof; -obs-sample periodically samples
// controller-internal state into the statistics registry. The trace
// composes with checkpointing: a resumed run appends to the same file and
// reproduces the uninterrupted trace byte for byte.
//
// Examples:
//
//	dramctrl -spec DDR3-1600-x64 -pattern linear -requests 50000
//	dramctrl -spec WideIO-200-x128 -pattern dramaware -stride 4 -banks 4 -reads 67
//	dramctrl -model cycle -pattern random -reads 50 -stats
//	dramctrl -trace-in capture.txt
//	dramctrl -pattern random -trace out.json     # load out.json in ui.perfetto.dev
//	dramctrl -requests 100000 -obs-http localhost:6060
//	dramctrl -requests 2000000 -checkpoint run.ckpt -checkpoint-every 1000000
//	dramctrl -requests 2000000 -checkpoint run.ckpt -resume
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/cyclesim"
	"repro/internal/dram"
	"repro/internal/experiments/cliconfig"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/supervisor"
	"repro/internal/system"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// errInterrupted marks a graceful signal-driven stop; main exits 130 (the
// conventional SIGINT code) after the partial results have been flushed.
var errInterrupted = errors.New("interrupted")

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil:
	case errors.Is(err, errInterrupted):
		os.Exit(130)
	default:
		fmt.Fprintln(os.Stderr, "dramctrl:", err)
		os.Exit(1)
	}
}

// options is every dramctrl flag.
type options struct {
	spec     *cliconfig.Spec
	pol      *cliconfig.Policy
	traf     *cliconfig.Traffic
	channels *int
	sup      *cliconfig.Checkpoint
	obs      *cliconfig.Obs

	list          bool
	powerDownNs   int64
	selfRefreshNs int64
	dumpStats     bool
	jsonStats     string
	traceIn       string
	traceOut      string
	intervalNs    int64
	faults        faults.Config
	eccLatencyNs  int64
	retryLimit    int
	watchdog      sim.Watchdog
}

// singleChannelOnly names the flags the sharded topology cannot honour:
// capture/replay and the host-driven samplers sit on one kernel, and fault
// injection is only wired for one controller. Setting any of them with
// -channels > 1 is an error, never a silently ignored flag.
var singleChannelOnly = []string{
	"trace-in", "trace-out", "interval", "obs-sample", "obs-http",
	"ber-correctable", "ber-uncorrectable", "ber-transient", "fault-seed", "ecc-latency", "retry-limit",
}

// parseFlags parses and validates the command line.
func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("dramctrl", flag.ContinueOnError)
	f := &options{
		spec:     cliconfig.AddSpec(fs, "DDR3-1600-x64"),
		pol:      cliconfig.AddPolicy(fs, cliconfig.PolicyFlags{Model: true, Sched: true}),
		traf:     cliconfig.AddTraffic(fs, 10000),
		channels: cliconfig.AddChannels(fs),
		sup:      cliconfig.AddCheckpoint(fs),
		obs:      cliconfig.AddObs(fs),
	}
	fs.BoolVar(&f.list, "list", false, "list available memory specs and exit")
	fs.Int64Var(&f.powerDownNs, "powerdown", 0, "power-down idle threshold in ns (0 = off, event model only)")
	fs.Int64Var(&f.selfRefreshNs, "selfrefresh", 0, "self-refresh idle threshold in ns (0 = off, event model only; must exceed -powerdown when both are set)")
	fs.BoolVar(&f.dumpStats, "stats", false, "dump the full statistics registry")
	fs.StringVar(&f.jsonStats, "json", "", "write the statistics registry as JSON to this file")
	fs.StringVar(&f.traceIn, "trace-in", "", "replay this trace file instead of a synthetic pattern")
	fs.StringVar(&f.traceOut, "trace-out", "", "capture the request stream to this trace file")
	fs.Int64Var(&f.intervalNs, "interval", 0, "print a bandwidth sample every N ns of simulated time (0 = off)")
	fs.Uint64Var(&f.faults.Seed, "fault-seed", 42, "fault injector seed (event model)")
	fs.Float64Var(&f.faults.CorrectablePerBurst, "ber-correctable", 0, "correctable errors per read burst (0-1, event model)")
	fs.Float64Var(&f.faults.UncorrectablePerBurst, "ber-uncorrectable", 0, "uncorrectable errors per read burst (0-1, event model)")
	fs.Float64Var(&f.faults.TransientPerBurst, "ber-transient", 0, "transient whole-burst failures per read burst (0-1, event model)")
	fs.Int64Var(&f.eccLatencyNs, "ecc-latency", 10, "ECC correction latency in ns")
	fs.IntVar(&f.retryLimit, "retry-limit", 4, "replay attempts before a faulty row is retired")
	fs.Uint64Var(&f.watchdog.MaxEvents, "max-events", 0, "watchdog: abort after this many events on any one kernel (0 = off)")
	fs.Uint64Var(&f.watchdog.MaxSameTick, "max-same-tick", 1_000_000, "watchdog: abort after this many events at one tick (0 = off)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if f.list {
		return f, nil
	}

	if err := f.sup.Validate(); err != nil {
		return nil, err
	}
	if err := f.obs.Validate(f.sup.Enabled()); err != nil {
		return nil, err
	}
	if f.sup.Enabled() {
		// The trace monitor and the time series hold host-side state no
		// component hook serializes; refuse the combination instead of
		// resuming with silently empty captures. (-trace is fine: the trace
		// sink is a checkpoint component.)
		if f.traceIn != "" || f.traceOut != "" {
			return nil, fmt.Errorf("checkpointing does not support trace capture/replay (drop -trace-in/-trace-out)")
		}
		if f.intervalNs > 0 {
			return nil, fmt.Errorf("checkpointing does not support the -interval time series")
		}
	}
	if f.sharded() {
		var bad string
		fs.Visit(func(fl *flag.Flag) {
			if bad == "" && slices.Contains(singleChannelOnly, fl.Name) {
				bad = fl.Name
			}
		})
		if bad != "" {
			return nil, fmt.Errorf("-%s is single-channel only (drop -channels)", bad)
		}
		if f.pol.Model == "cycle" && f.pol.Sched == "fcfs" {
			return nil, fmt.Errorf("-sched fcfs with -model cycle is single-channel only (drop -channels)")
		}
	}
	if f.pol.Model == "cycle" && f.faults.Enabled() {
		return nil, fmt.Errorf("fault injection is only modelled by the event-based controller")
	}
	return f, nil
}

// sharded reports whether -channels asked for the multi-channel topology.
func (f *options) sharded() bool { return *f.channels > 1 }

// tuneEvent applies the policy flags to an event-based controller
// configuration; both topologies get them from here.
func (f *options) tuneEvent(page core.PagePolicy) func(*core.Config) {
	return func(c *core.Config) {
		c.Page = page
		if f.pol.Sched == "fcfs" {
			c.Scheduling = core.FCFS
		}
		c.PowerDownIdle = sim.Tick(f.powerDownNs) * sim.Nanosecond
		c.SelfRefreshIdle = sim.Tick(f.selfRefreshNs) * sim.Nanosecond
		c.Faults = f.faults
		c.ECCCorrectionLatency = sim.Tick(f.eccLatencyNs) * sim.Nanosecond
		c.FaultRetryLimit = f.retryLimit
	}
}

// sampled is a controller the periodic state sampler can read.
type sampled interface {
	system.Controller
	ObsSample() obs.Sample
}

// rig is one wired simulation of either topology: the session the
// supervisor drives, plus what the report reads afterwards.
type rig struct {
	sess    *system.Session
	reg     *stats.Registry
	kernels []*sim.Kernel
	ctrls   []system.Controller
	gen     *trafficgen.Generator // nil when replaying a trace
	sharded *system.ShardedRig    // nil on one channel
	mon     *trafficgen.Monitor
	series  *stats.Series
	sink    *obs.TraceSink
}

// tracePidStride spaces the per-tracer pid ranges so the frontend's
// processes (crossbar) and each channel's processes land in disjoint,
// stable id ranges regardless of how many components each shard emits.
const tracePidStride = 1000

// build wires the simulation the flags describe without starting it.
func build(f *options, spec dram.Spec, mapping dram.Mapping, live *obs.LiveServer, out io.Writer) (*rig, error) {
	page, err := f.pol.CorePage()
	if err != nil {
		return nil, err
	}
	// One observation hub per kernel, existing before the controllers: the
	// models snapshot theirs at construction (nil when no probe is attached,
	// so the instrumented paths stay a single branch). With -trace each hub
	// feeds its own tracer — hubs[0] the frontend (the only kernel of a
	// single-channel run), the rest one channel shard each — and the sink
	// drains them in this fixed order from the step hook, so the file is a
	// function of the configuration alone.
	hubs := make([]*obs.Hub, 1)
	if f.sharded() {
		hubs = make([]*obs.Hub, 1+*f.channels)
	}
	var tw *obs.TraceWriter
	var tracers []*obs.Tracer
	if f.obs.Tracing() {
		if tw, err = obs.NewTraceWriter(f.obs.TracePath); err != nil {
			return nil, err
		}
	}
	for i := range hubs {
		hubs[i] = obs.NewHub()
		if tw != nil {
			t := obs.NewTracer(i * tracePidStride)
			hubs[i].Attach(t)
			tracers = append(tracers, t)
		}
	}

	var r *rig
	if f.sharded() {
		r, err = wireSharded(f, spec, mapping, page, hubs)
	} else {
		r, err = wireSingle(f, spec, mapping, page, hubs[0], live, out)
	}
	if err != nil {
		return nil, err
	}
	if tw != nil {
		r.sink = obs.NewTraceSink(tw, tracers...)
		// The header goes out when a fresh run is armed; a restored run
		// skips that and truncates the file to the checkpoint's length
		// instead. Trace lines buffered during a quantum flush to the file
		// in the step hook, keeping memory bounded regardless of run length.
		r.sess.OnStart, r.sess.OnStep = tw.BeginFresh, r.sink.Flush
		// The trace sink registers last: its save flushes every tracer, so
		// the recorded file length covers all events up to the checkpoint.
		if mgr := r.sess.Manager(); mgr != nil {
			mgr.Register("trace", r.sink)
		}
	}
	if f.watchdog.Enabled() {
		for _, k := range r.kernels {
			k.SetWatchdog(f.watchdog)
		}
	}
	return r, nil
}

// wireSharded builds the per-channel rig: crossbar and generator on a
// frontend kernel, each channel's controller on its own kernel behind a link,
// all stepped on the calling goroutine one link latency at a time. Shards
// checkpoint at those quantum barriers.
func wireSharded(f *options, spec dram.Spec, mapping dram.Mapping, page core.PagePolicy, hubs []*obs.Hub) (*rig, error) {
	kind, err := f.pol.SystemKind()
	if err != nil {
		return nil, err
	}
	pat, err := f.traf.BuildPattern(spec, mapping, *f.channels)
	if err != nil {
		return nil, err
	}
	sr, err := system.NewShardedRig(system.ShardedConfig{
		Kind:        kind,
		Spec:        spec,
		Mapping:     mapping,
		ClosedPage:  f.pol.ClosedPage(),
		TuneEvent:   f.tuneEvent(page),
		Channels:    *f.channels,
		Xbar:        xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 64},
		Gens:        []trafficgen.Config{f.traf.GenConfig()},
		Patterns:    []trafficgen.Pattern{pat},
		FrontProbes: hubs[0],
		ShardProbes: hubs[1:],
	})
	if err != nil {
		return nil, err
	}
	sess, err := sr.NewSession("", maxSim)
	if err != nil {
		return nil, err
	}
	return &rig{
		sess: sess, reg: sr.Reg, kernels: append([]*sim.Kernel{sr.Front}, sr.Chans...),
		ctrls: sr.Ctrls, gen: sr.Gens[0], sharded: sr,
	}, nil
}

// maxSim bounds every run's simulated time.
const maxSim = 100 * sim.Second

// wireSingle builds the single-channel system by hand: one controller with
// every flag applied to its default (not rig-matched) configuration, an
// optional capture monitor in front of it, and a generator or trace player.
func wireSingle(f *options, spec dram.Spec, mapping dram.Mapping, page core.PagePolicy, hub *obs.Hub,
	live *obs.LiveServer, out io.Writer) (*rig, error) {
	k := sim.NewKernel()
	reg := stats.NewRegistry("dramctrl")
	r := &rig{reg: reg, kernels: []*sim.Kernel{k}}

	var ctrl sampled
	var err error
	switch f.pol.Model {
	case "event":
		cfg := core.DefaultConfig(spec)
		cfg.Mapping = mapping
		f.tuneEvent(page)(&cfg)
		cfg.Probes = hub
		ctrl, err = core.NewController(k, cfg, reg, "mc")
	case "cycle":
		cfg := cyclesim.DefaultConfig(spec)
		cfg.Mapping = mapping
		if f.pol.ClosedPage() {
			cfg.Page = cyclesim.ClosedPage
		}
		if f.pol.Sched == "fcfs" {
			cfg.Scheduling = cyclesim.FCFS
		}
		cfg.Probes = hub
		ctrl, err = cyclesim.NewController(k, cfg, reg, "mc")
	default:
		err = fmt.Errorf("unknown model %q", f.pol.Model)
	}
	if err != nil {
		return nil, err
	}
	r.ctrls = []system.Controller{ctrl}

	// Optional capture monitor in front of the controller.
	sink := ctrl.Port()
	if f.traceOut != "" {
		r.mon = trafficgen.NewMonitor(k, reg, "mon")
		mem.Connect(r.mon.MemPort(), ctrl.Port())
		sink = r.mon.CPUPort()
	}

	var src system.Source
	if f.traceIn != "" {
		file, err := os.Open(f.traceIn)
		if err != nil {
			return nil, err
		}
		recs, err := trafficgen.ParseTrace(file)
		file.Close()
		if err != nil {
			return nil, err
		}
		player := trafficgen.NewTracePlayer(k, recs, 0)
		mem.Connect(player.Port(), sink)
		src = player
		fmt.Fprintf(out, "replaying %d trace records from %s\n", len(recs), f.traceIn)
	} else {
		pat, err := f.traf.BuildPattern(spec, mapping, 1)
		if err != nil {
			return nil, err
		}
		r.gen, err = trafficgen.New(k, f.traf.GenConfig(), pat, reg, "gen")
		if err != nil {
			return nil, err
		}
		mem.Connect(r.gen.Port(), sink)
		src = r.gen
	}
	r.sess = system.NewSession(k, reg, ctrl, src)
	r.sess.Deadline = maxSim
	if f.sup.Enabled() {
		if err := r.sess.Supervise(""); err != nil {
			return nil, err
		}
	}

	// Optional bandwidth time series (paper §II-E: statistics at arbitrary
	// points in time) and periodic state sampler, publishing to the live
	// endpoint when there is one (-interval, -obs-sample / -obs-http). Both
	// are rejected alongside checkpointing, so every run that has them is a
	// fresh one and they arm here, ahead of the traffic source.
	if f.intervalNs > 0 {
		r.series, err = stats.NewSeries(k, sim.Tick(f.intervalNs)*sim.Nanosecond,
			func() float64 {
				a := ctrl.PowerStats()
				return float64(a.ReadBursts+a.WriteBursts) * float64(spec.Org.BurstBytes())
			}, true)
		if err != nil {
			return nil, err
		}
		r.series.Start()
	}
	if f.obs.Sampling() {
		sampler, err := obs.NewSamplerProbe(k, reg, sim.Tick(f.obs.SampleNs)*sim.Nanosecond,
			[]obs.SampledSource{{Name: "mc", Src: ctrl}},
			func(now sim.Tick) {
				if live != nil {
					live.PublishStats(reg, now)
					live.PublishSample(now, "mc", ctrl.ObsSample())
				}
			})
		if err != nil {
			return nil, err
		}
		sampler.Start()
	}
	return r, nil
}

// run is the one run path: parse, wire the topology -channels selects, drive
// it under the supervisor, report.
func run(args []string, out io.Writer) error {
	f, err := parseFlags(args)
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	if err != nil {
		return err
	}
	if f.list {
		cliconfig.ListSpecs(out)
		return nil
	}
	spec, err := f.spec.Resolve()
	if err != nil {
		return err
	}
	mapping, err := f.pol.ParseMapping()
	if err != nil {
		return err
	}
	var live *obs.LiveServer
	if f.obs.HTTPAddr != "" {
		if live, err = obs.NewLiveServer(f.obs.HTTPAddr); err != nil {
			return err
		}
		// Drain in-flight requests instead of dropping them — this is also
		// the SIGINT/SIGTERM exit path.
		defer live.Shutdown(2 * time.Second) //nolint:errcheck // force-closed on a stuck drain
		fmt.Fprintf(os.Stderr, "dramctrl: live observation endpoint on http://%s/\n", live.Addr())
	}

	var r *rig
	notify, stopNotify := supervisor.NotifySignals()
	defer stopNotify()
	res, err := supervisor.Run(f.sup.Config(notify), func() (supervisor.Session, error) {
		built, err := build(f, spec, mapping, live, out)
		if err != nil {
			return nil, err
		}
		r = built
		return built.sess, nil
	})
	if err != nil {
		return err
	}
	if res.Interrupted {
		fmt.Fprintf(out, "interrupted at %s; partial results:\n", res.Now)
	}
	if r.sink != nil {
		// Terminate the JSON array so the file is strict JSON. A later
		// -resume truncates back to the checkpointed length, terminator
		// included, so the resumed file still matches an uninterrupted run.
		if err := r.sink.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace written to %s (load in ui.perfetto.dev)\n", f.obs.TracePath)
	}
	if err := report(f, spec, mapping, r, !res.Interrupted, out); err != nil {
		return err
	}
	if res.Interrupted {
		return errInterrupted
	}
	return nil
}

// report prints the results and writes the requested output files.
func report(f *options, spec dram.Spec, mapping dram.Mapping, r *rig, complete bool, out io.Writer) error {
	if r.gen != nil {
		fmt.Fprintf(out, "mean read latency (generator): %.1f ns (p99 %.1f ns, %d samples)\n",
			r.gen.ReadLatency().Mean(), r.gen.ReadLatency().Percentile(99), r.gen.ReadLatency().Count())
	}
	var events uint64
	for _, k := range r.kernels {
		events += k.EventsExecuted()
	}
	fmt.Fprintf(out, "spec %s, model %s, mapping %s, page %s\n", spec.Name, f.pol.Model, mapping, f.pol.Page)
	fmt.Fprintf(out, "simulated %s in %d events\n", r.sess.Now(), events)
	if sr := r.sharded; sr != nil {
		fmt.Fprintf(out, "%d channels, one kernel each, lookahead %s\n", *f.channels, sr.Lookahead())
		fmt.Fprintf(out, "aggregate bandwidth %.2f GB/s (%.1f%% avg bus utilisation)\n",
			sr.AggregateBandwidth()/1e9, sr.AvgBusUtilisation()*100)
		for i, c := range r.ctrls {
			fmt.Fprintf(out, "  mc%d: %.2f GB/s, %.1f%% row hits\n", i, c.Bandwidth()/1e9, c.RowHitRate()*100)
		}
	} else {
		c := r.ctrls[0]
		fmt.Fprintf(out, "bandwidth %.2f GB/s (%.1f%% bus utilisation), row hit rate %.1f%%\n",
			c.Bandwidth()/1e9, c.BusUtilisation()*100, c.RowHitRate()*100)
		act := c.PowerStats()
		fmt.Fprintf(out, "DRAM power: %s\n", power.Compute(spec, act))
		if f.faults.Enabled() {
			get := func(name string) float64 {
				if s, ok := r.reg.Get("dramctrl.mc." + name).(*stats.Scalar); ok {
					return s.Value()
				}
				return 0
			}
			fmt.Fprintf(out, "faults (seed %d): %.0f corrected, %.0f uncorrected, %.0f retried, %.0f rows retired, %.0f scrubs (%.0f dropped)\n",
				f.faults.Seed, get("correctedErrors"), get("uncorrectedErrors"),
				get("retriedBursts"), get("retiredRows"), get("scrubWrites"), get("droppedScrubs"))
		}
		if act.PowerDownTime > 0 {
			fmt.Fprintf(out, "power-down time: %s (%.1f%% of run)\n", act.PowerDownTime,
				float64(act.PowerDownTime)/float64(act.Elapsed)*100)
		}
		if act.SelfRefreshTime > 0 {
			fmt.Fprintf(out, "self-refresh time: %s (%.1f%% of run)\n", act.SelfRefreshTime,
				float64(act.SelfRefreshTime)/float64(act.Elapsed)*100)
		}
	}

	if r.series != nil {
		fmt.Fprintln(out, "\nbandwidth over time:")
		intervalSec := float64(f.intervalNs) * 1e-9
		for _, pt := range r.series.Points() {
			fmt.Fprintf(out, "  %10s %8.2f GB/s\n", pt.At, pt.Value/intervalSec/1e9)
		}
	}
	if r.mon != nil && complete {
		err := writeFile(f.traceOut, func(w io.Writer) error { return trafficgen.FormatTrace(w, r.mon.Trace()) })
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "captured %d records to %s\n", len(r.mon.Trace()), f.traceOut)
	}
	if f.jsonStats != "" {
		if err := writeFile(f.jsonStats, r.reg.DumpJSON); err != nil {
			return err
		}
		fmt.Fprintf(out, "statistics written to %s\n", f.jsonStats)
	}
	if f.dumpStats {
		fmt.Fprintln(out, "\nstatistics:")
		return r.reg.Dump(out)
	}
	return nil
}

// writeFile creates path, fills it through write, and reports a failed
// close as a write error.
func writeFile(path string, write func(io.Writer) error) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(out); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
