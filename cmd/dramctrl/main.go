// Command dramctrl is the general-purpose runner: it assembles a traffic
// source (synthetic pattern or trace file) over one DRAM controller (event-
// or cycle-based) — or, with -channels N, over N of them behind a crossbar
// that interleaves the channels, on the same kernel — with every policy knob
// exposed as a flag, runs to completion, and reports bandwidth, latency,
// power and (optionally) the full statistics dump — the repository's
// equivalent of driving a gem5 memory configuration from the command line.
// -channels is a parameter of the one wiring, so every flag composes with it.
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
	fs.Uint64Var(&f.faults.Seed, "fault-seed", 42, "fault injector seed (event model; channel i of several is seeded with this plus i)")
	fs.Float64Var(&f.faults.CorrectablePerBurst, "ber-correctable", 0, "correctable errors per read burst (0-1, event model)")
	fs.Float64Var(&f.faults.UncorrectablePerBurst, "ber-uncorrectable", 0, "uncorrectable errors per read burst (0-1, event model)")
	fs.Float64Var(&f.faults.TransientPerBurst, "ber-transient", 0, "transient whole-burst failures per read burst (0-1, event model)")
	fs.Int64Var(&f.eccLatencyNs, "ecc-latency", 10, "ECC correction latency in ns")
	fs.IntVar(&f.retryLimit, "retry-limit", 4, "replay attempts before a faulty row is retired")
	fs.Uint64Var(&f.watchdog.MaxEvents, "max-events", 0, "watchdog: abort after this many events (0 = off)")
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
	if f.pol.Model == "cycle" && f.faults.Enabled() {
		return nil, fmt.Errorf("fault injection is only modelled by the event-based controller")
	}
	return f, nil
}

// controller is what both models are to this command: a system.Controller the
// periodic state sampler can read.
type controller interface {
	system.Controller
	obs.SampleSource
}

// newController builds channel i — "mc", or "mc<i>" of several — from the
// model's default configuration plus the flags, so a channel is the same
// controller whatever -channels says.
func (f *options) newController(k *sim.Kernel, reg *stats.Registry, hub *obs.Hub,
	spec dram.Spec, mapping dram.Mapping, page core.PagePolicy, i int) (controller, error) {
	name := "mc"
	if *f.channels > 1 {
		name = fmt.Sprintf("mc%d", i)
	}
	switch f.pol.Model {
	case "event":
		cfg := core.DefaultConfig(spec)
		cfg.Mapping = mapping
		cfg.Channels = *f.channels
		cfg.Page = page
		if f.pol.Sched == "fcfs" {
			cfg.Scheduling = core.FCFS
		}
		cfg.PowerDownIdle = sim.Tick(f.powerDownNs) * sim.Nanosecond
		cfg.SelfRefreshIdle = sim.Tick(f.selfRefreshNs) * sim.Nanosecond
		cfg.Faults = f.faults
		cfg.Faults.Seed = f.faultSeed(i)
		cfg.ECCCorrectionLatency = sim.Tick(f.eccLatencyNs) * sim.Nanosecond
		cfg.FaultRetryLimit = f.retryLimit
		cfg.Probes = hub
		return core.NewController(k, cfg, reg, name)
	case "cycle":
		cfg := cyclesim.DefaultConfig(spec)
		cfg.Mapping = mapping
		cfg.Channels = *f.channels
		if f.pol.ClosedPage() {
			cfg.Page = cyclesim.ClosedPage
		}
		if f.pol.Sched == "fcfs" {
			cfg.Scheduling = cyclesim.FCFS
		}
		cfg.Probes = hub
		return cyclesim.NewController(k, cfg, reg, name)
	}
	return nil, fmt.Errorf("unknown model %q", f.pol.Model)
}

// faultSeed is channel i's injector seed: -fault-seed plus i, so several
// channels do not replay one fault stream and one channel keeps the seed as
// given.
func (f *options) faultSeed(i int) uint64 { return f.faults.Seed + uint64(i) }

// rig is the wired simulation: the session the supervisor drives, plus what
// the report reads afterwards.
type rig struct {
	sess   *system.Session
	reg    *stats.Registry
	k      *sim.Kernel
	ctrls  []system.Controller
	gen    *trafficgen.Generator // nil when replaying a trace
	mon    *trafficgen.Monitor
	series *stats.Series
	sink   *obs.TraceSink
}

// maxSim bounds every run's simulated time.
const maxSim = 100 * sim.Second

// build wires the simulation the flags describe without starting it: one
// kernel, one registry, one observation hub, -channels controllers, and a
// generator or trace player (behind an optional capture monitor) connected
// straight to the controller when there is one, through a crossbar
// interleaving the channels when there are several (paper §II-E/F, Fig. 1).
func build(f *options, spec dram.Spec, mapping dram.Mapping, live *obs.LiveServer, out io.Writer) (*rig, error) {
	page, err := f.pol.CorePage()
	if err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	reg := stats.NewRegistry("dramctrl")
	r := &rig{reg: reg, k: k}

	// The hub exists before the controllers: the models snapshot it at
	// construction (nil when no probe is attached, so the instrumented paths
	// stay a single branch).
	hub := obs.NewHub()
	var tw *obs.TraceWriter
	if f.obs.Tracing() {
		if tw, err = obs.NewTraceWriter(f.obs.TracePath); err != nil {
			return nil, err
		}
		tracer := obs.NewTracer()
		hub.Attach(tracer)
		r.sink = obs.NewTraceSink(tw, tracer)
	}

	n := *f.channels
	r.ctrls = make([]system.Controller, n)
	sampled := make([]obs.SampledSource, n)
	for i := range r.ctrls {
		c, err := f.newController(k, reg, hub, spec, mapping, page, i)
		if err != nil {
			return nil, err
		}
		r.ctrls[i], sampled[i] = c, obs.SampledSource{Name: c.Name(), Src: c}
	}

	// A replayed trace is read first: the crossbar must be at least as wide
	// as the largest request the source will send.
	var recs []trafficgen.TraceRecord
	widest := f.traf.Bytes
	if f.traceIn != "" {
		if recs, err = readTrace(f.traceIn); err != nil {
			return nil, err
		}
		widest = 0
		for _, rec := range recs {
			widest = max(widest, rec.Size)
		}
	}

	// What the source talks to: the controller itself, or the crossbar that
	// interleaves the channels, with the optional capture monitor in front.
	sink := r.ctrls[0].Port()
	var xb *xbar.Crossbar
	if n > 1 {
		xcfg := xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 64, Probes: hub}
		if xb, err = system.InterleavedXbar(k, reg, "xbar", xcfg, spec.Org, mapping, n, widest); err != nil {
			return nil, err
		}
		for _, c := range r.ctrls {
			mem.Connect(xb.AttachMemory("mem"), c.Port())
		}
		sink = xb.AttachRequestor("gen")
	}
	if f.traceOut != "" {
		r.mon = trafficgen.NewMonitor(k, reg, "mon")
		mem.Connect(r.mon.MemPort(), sink)
		sink = r.mon.CPUPort()
	}

	var src system.Source
	if f.traceIn != "" {
		player := trafficgen.NewTracePlayer(k, recs, 0)
		mem.Connect(player.Port(), sink)
		src = player
		fmt.Fprintf(out, "replaying %d trace records from %s\n", len(recs), f.traceIn)
	} else {
		pat, err := f.traf.BuildPattern(spec, mapping, n)
		if err != nil {
			return nil, err
		}
		if r.gen, err = trafficgen.New(k, f.traf.GenConfig(), pat, reg, "gen"); err != nil {
			return nil, err
		}
		mem.Connect(r.gen.Port(), sink)
		src = r.gen
	}
	r.sess = system.NewSession(k, reg, xb, r.ctrls, src)
	r.sess.Deadline = maxSim
	if f.sup.Enabled() {
		if err := r.sess.Supervise(""); err != nil {
			return nil, err
		}
	}
	if r.sink != nil {
		// The header goes out when a fresh run is armed; a restored run
		// skips that and truncates the file to the checkpoint's length
		// instead. Trace lines buffered during a quantum flush to the file
		// in the step hook, keeping memory bounded regardless of run length.
		r.sess.OnStart, r.sess.OnStep = tw.BeginFresh, r.sink.Flush
		// The trace sink registers last: its save flushes the tracer, so
		// the recorded file length covers all events up to the checkpoint.
		if mgr := r.sess.Manager(); mgr != nil {
			mgr.Register("trace", r.sink)
		}
	}
	if f.watchdog.Enabled() {
		k.SetWatchdog(f.watchdog)
	}

	// Optional bandwidth time series (paper §II-E: statistics at arbitrary
	// points in time) and periodic state sampler, publishing to the live
	// endpoint when there is one (-interval, -obs-sample / -obs-http). Both
	// are rejected alongside checkpointing, so every run that has them is a
	// fresh one and they arm here, ahead of the traffic source.
	if f.intervalNs > 0 {
		r.series, err = stats.NewSeries(k, sim.Tick(f.intervalNs)*sim.Nanosecond,
			func() float64 {
				var bursts uint64
				for _, c := range r.ctrls {
					a := c.PowerStats()
					bursts += a.ReadBursts + a.WriteBursts
				}
				return float64(bursts) * float64(spec.Org.BurstBytes())
			}, true)
		if err != nil {
			return nil, err
		}
		r.series.Start()
	}
	if f.obs.Sampling() {
		sampler, err := obs.NewSamplerProbe(k, reg, sim.Tick(f.obs.SampleNs)*sim.Nanosecond, sampled,
			func(now sim.Tick) {
				if live != nil {
					live.PublishStats(reg, now)
					for _, s := range sampled {
						live.PublishSample(now, s.Name, s.Src.ObsSample())
					}
				}
			})
		if err != nil {
			return nil, err
		}
		sampler.Start()
	}
	return r, nil
}

// run is the one run path: parse, wire, drive under the supervisor, report.
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

// report prints the results and writes the requested output files. With
// several channels every per-controller line carries the controller's name.
func report(f *options, spec dram.Spec, mapping dram.Mapping, r *rig, complete bool, out io.Writer) error {
	if r.gen != nil {
		fmt.Fprintf(out, "mean read latency (generator): %.1f ns (p99 %.1f ns, %d samples)\n",
			r.gen.ReadLatency().Mean(), r.gen.ReadLatency().Percentile(99), r.gen.ReadLatency().Count())
	}
	fmt.Fprintf(out, "spec %s, model %s, mapping %s, page %s\n", spec.Name, f.pol.Model, mapping, f.pol.Page)
	fmt.Fprintf(out, "simulated %s in %d events\n", r.sess.Now(), r.k.EventsExecuted())
	n := len(r.ctrls)
	if n > 1 {
		var bw, util float64
		for _, c := range r.ctrls {
			bw += c.Bandwidth()
			util += c.BusUtilisation()
		}
		fmt.Fprintf(out, "%d channels behind a crossbar\n", n)
		fmt.Fprintf(out, "aggregate bandwidth %.2f GB/s (%.1f%% avg bus utilisation)\n", bw/1e9, util/float64(n)*100)
	}
	for i, c := range r.ctrls {
		tag := ""
		if n > 1 {
			tag = c.Name() + ": "
		}
		fmt.Fprintf(out, "%sbandwidth %.2f GB/s (%.1f%% bus utilisation), row hit rate %.1f%%\n",
			tag, c.Bandwidth()/1e9, c.BusUtilisation()*100, c.RowHitRate()*100)
		act := c.PowerStats()
		fmt.Fprintf(out, "%sDRAM power: %s\n", tag, power.Compute(spec, act))
		if f.faults.Enabled() {
			get := func(name string) float64 {
				if s, ok := r.reg.Get("dramctrl." + c.Name() + "." + name).(*stats.Scalar); ok {
					return s.Value()
				}
				return 0
			}
			fmt.Fprintf(out, "%sfaults (seed %d): %.0f corrected, %.0f uncorrected, %.0f retried, %.0f rows retired, %.0f scrubs (%.0f dropped)\n",
				tag, f.faultSeed(i), get("correctedErrors"), get("uncorrectedErrors"),
				get("retriedBursts"), get("retiredRows"), get("scrubWrites"), get("droppedScrubs"))
		}
		if act.PowerDownTime > 0 {
			fmt.Fprintf(out, "%spower-down time: %s (%.1f%% of run)\n", tag, act.PowerDownTime,
				float64(act.PowerDownTime)/float64(act.Elapsed)*100)
		}
		if act.SelfRefreshTime > 0 {
			fmt.Fprintf(out, "%sself-refresh time: %s (%.1f%% of run)\n", tag, act.SelfRefreshTime,
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

// readTrace parses the trace file at path.
func readTrace(path string) ([]trafficgen.TraceRecord, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	return trafficgen.ParseTrace(file)
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
