// Command dramctrl is the general-purpose runner: it assembles a traffic
// source (synthetic pattern or trace file) over one DRAM controller (event-
// or cycle-based) — or, with -channels N, over N of them behind a crossbar
// that interleaves the channels, on the same kernel — with every policy knob
// exposed as a flag, runs to completion, and reports bandwidth, latency,
// power and (optionally) the full statistics dump — the repository's
// equivalent of driving a gem5 memory configuration from the command line.
// -channels is a parameter of the one wiring, so every flag composes with it.
//
// Runs are supervised: -checkpoint writes a checksummed recipe of the run, on
// either model — every -checkpoint-every of simulated time and at
// completion — and SIGINT/SIGTERM drain the current quantum, write a final
// one, flush statistics, and exit 130. A recipe is the resolved configuration,
// the flags that shape the run (the effective -obs-sample interval included),
// a hash of the -trace-in file, the tick reached and a digest of the
// statistics there. -resume rebuilds the run, replays it silently to that
// tick (about 0.4 µs of host time per request), refuses it if the statistics
// differ, and continues; every file the run writes (-trace, -cmd-trace,
// -trace-out, -json) and the bandwidth-over-time table come out as the
// uninterrupted run's. A failed step (watchdog trip, panic) writes
// <checkpoint>.postmortem — the recipe at the failing tick and the
// error — and ends the run with the tick; -resume continues from the last
// good checkpoint.
//
// Observability: -trace writes a Chrome/Perfetto trace of the run (packet
// lifecycles, per-bank command spans, refresh windows); -obs-http serves
// live statistics snapshots and pprof; -obs-sample periodically samples
// controller-internal state and bandwidth into the statistics registry and
// prints the bandwidth over time.
//
// Protocol checking: -check records every channel's DRAM commands, on either
// model, and verifies them with the independent timing checker
// (power.CheckTiming) when the run ends; any violation fails the run, and
// under -trace each one cites its Perfetto span. -cmd-trace archives a
// one-channel recording, and -cmd-trace-in re-checks an archived one against
// -spec without simulating.
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
//	dramctrl -model cycle -spec ddr4 -check -trace out.json
//	dramctrl -pattern bursty -powerdown 500 -selfrefresh 3000 -check -cmd-trace cmds.txt
//	dramctrl -cmd-trace-in cmds.txt -spec DDR3-1600-x64
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cyclesim"
	"repro/internal/dram"
	"repro/internal/experiments"
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

func main() { cliconfig.Exit("dramctrl", run(os.Args[1:], os.Stdout)) }

// options is every dramctrl flag.
type options struct {
	spec     *string
	pol      *cliconfig.Policy
	traf     *cliconfig.Traffic
	channels *int
	sup      *cliconfig.Checkpoint
	obs      *cliconfig.Obs

	list        bool
	check       bool
	cmdTrace    string
	cmdTraceIn  string
	powerDown   *sim.Tick
	selfRefresh *sim.Tick
	dumpStats   bool
	jsonStats   string
	traceIn     string
	traceOut    string
	faults      faults.Config
	eccLatency  *sim.Tick
	retryLimit  int
	watchdog    sim.Watchdog

	// shaping is every flag that shapes the simulated run, by name, with its
	// value: a checkpoint's Flags.
	shaping map[string]string
}

// notShaping are the flags that choose what a run writes, how it is watched
// or supervised, or that it is no run at all: a resume may change them.
// -obs-http is an address; the sampling it implies is recorded through
// -obs-sample, whose statistics the run registers.
var notShaping = map[string]bool{
	"list": true, "cmd-trace-in": true, "check": true, "cmd-trace": true, "stats": true, "json": true,
	"trace-out": true, "trace": true, "obs-http": true,
	"checkpoint": true, "checkpoint-every": true, "resume": true, "max-events": true, "max-same-tick": true,
}

// parseFlags parses and validates the command line.
func parseFlags(args []string) (*options, error) {
	fs, f := newFlags()
	if ok, err := cliconfig.Parse(fs, args); !ok {
		return nil, err // nil, nil after -h
	}
	if f.list || f.cmdTraceIn != "" {
		return f, nil
	}
	if err := f.sup.Validate(); err != nil {
		return nil, err
	}
	f.obs.Resolve()
	// A recipe names the device by its preset, however -spec spelled it.
	spec, err := dram.ByName(*f.spec)
	if err != nil {
		return nil, err
	}
	*f.spec = spec.Name
	if f.cmdTrace != "" && *f.channels > 1 {
		return nil, fmt.Errorf("-cmd-trace records one channel (the file has no channel column); use -check alone with -channels %d", *f.channels)
	}
	f.shaping = map[string]string{}
	fs.VisitAll(func(fl *flag.Flag) {
		if !notShaping[fl.Name] {
			f.shaping[fl.Name] = fl.Value.String()
		}
	})
	return f, nil
}

// newFlags registers every dramctrl flag on a fresh FlagSet.
func newFlags() (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("dramctrl", flag.ContinueOnError)
	f := &options{
		spec: fs.String("spec", "DDR3-1600-x64",
			"memory device: a preset name (see -list) or a standard ("+strings.Join(dram.Standards(), ", ")+")"),
		pol:      cliconfig.AddPolicy(fs),
		traf:     cliconfig.AddTraffic(fs, 10000),
		channels: cliconfig.AddChannels(fs),
		sup:      cliconfig.AddCheckpoint(fs),
		obs:      cliconfig.AddObs(fs),
	}
	fs.BoolVar(&f.list, "list", false, "list available memory specs and exit")
	fs.BoolVar(&f.check, "check", false, "check every channel's DRAM commands against the device's timing rules at the end of the run; a violation is an error")
	fs.StringVar(&f.cmdTrace, "cmd-trace", "", "write the recorded DRAM command stream to this file (one channel only)")
	fs.StringVar(&f.cmdTraceIn, "cmd-trace-in", "", "check a recorded DRAM command stream against -spec and exit (no simulation)")
	f.powerDown = cliconfig.AddNanoseconds(fs, "powerdown", 0, "power-down idle threshold in ns (0 = off, event model only)")
	f.selfRefresh = cliconfig.AddNanoseconds(fs, "selfrefresh", 0, "self-refresh idle threshold in ns (0 = off, event model only; must exceed -powerdown when both are set)")
	fs.BoolVar(&f.dumpStats, "stats", false, "dump the full statistics registry")
	fs.StringVar(&f.jsonStats, "json", "", "write the statistics registry as JSON to this file")
	fs.StringVar(&f.traceIn, "trace-in", "", "replay this trace file instead of a synthetic pattern")
	fs.StringVar(&f.traceOut, "trace-out", "", "capture the request stream to this trace file")
	fs.Uint64Var(&f.faults.Seed, "fault-seed", 42, "fault injector seed (event model; channel i of several is seeded with this plus i)")
	fs.Float64Var(&f.faults.CorrectablePerBurst, "ber-correctable", 0, "correctable errors per read burst (0-1, event model)")
	fs.Float64Var(&f.faults.UncorrectablePerBurst, "ber-uncorrectable", 0, "uncorrectable errors per read burst (0-1, event model)")
	fs.Float64Var(&f.faults.TransientPerBurst, "ber-transient", 0, "transient whole-burst failures per read burst (0-1, event model)")
	f.eccLatency = cliconfig.AddNanoseconds(fs, "ecc-latency", 10, "ECC correction latency in ns")
	fs.IntVar(&f.retryLimit, "retry-limit", 4, "replay attempts before a faulty row is retired")
	fs.Uint64Var(&f.watchdog.MaxEvents, "max-events", 0, "watchdog: abort after this many events (0 = off)")
	fs.Uint64Var(&f.watchdog.MaxSameTick, "max-same-tick", 1_000_000, "watchdog: abort after this many events at one tick (0 = off)")
	return fs, f
}

// recording reports whether the run records its DRAM command streams.
func (f *options) recording() bool { return f.check || f.cmdTrace != "" }

// memory describes the memory side the flags ask for: -channels controllers
// of -model, each the model's default configuration plus the flags — so a
// channel is the same controller whatever -channels says — behind a crossbar
// when there are several. What the selected model cannot honour is refused
// here, not ignored. widest is the largest request the source will send.
func (f *options) memory(spec dram.Spec, mapping dram.Mapping, hub *obs.Hub, widest uint64) (system.MemoryConfig, error) {
	mc := system.MemoryConfig{Root: "dramctrl", Channels: *f.channels, Probes: hub, Widest: widest}
	if mc.Channels > 1 {
		mc.Xbar = &xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 64, Probes: hub}
	}
	page, err := f.pol.CorePage()
	if err != nil {
		return mc, err
	}
	switch f.pol.Model {
	case "event":
		cfg := core.DefaultConfig(spec)
		cfg.Mapping = mapping
		cfg.Page = page
		if f.pol.Sched == "fcfs" {
			cfg.Scheduling = core.FCFS
		}
		cfg.PowerDownIdle = *f.powerDown
		cfg.SelfRefreshIdle = *f.selfRefresh
		cfg.Faults = f.faults
		cfg.ECCCorrectionLatency = *f.eccLatency
		cfg.FaultRetryLimit = f.retryLimit
		mc.Kind, mc.Event = system.EventBased, cfg
	case "cycle":
		switch {
		case f.faults.Enabled():
			return mc, fmt.Errorf("fault injection is only modelled by the event-based controller")
		case *f.powerDown != 0 || *f.selfRefresh != 0:
			return mc, fmt.Errorf("-powerdown/-selfrefresh are only modelled by the event-based controller")
		case page == core.OpenAdaptive || page == core.ClosedAdaptive:
			return mc, fmt.Errorf("-page %s is only modelled by the event-based controller (the cycle model has open and closed)", f.pol.Page)
		}
		cfg := cyclesim.DefaultConfig(spec)
		cfg.Mapping = mapping
		if page == core.Closed {
			cfg.Page = cyclesim.ClosedPage
		}
		if f.pol.Sched == "fcfs" {
			cfg.Scheduling = cyclesim.FCFS
		}
		mc.Kind, mc.Cycle = system.CycleBased, cfg
	default:
		return mc, fmt.Errorf("unknown model %q", f.pol.Model)
	}
	return mc, nil
}

// rig is the wired simulation: the session the supervisor drives, plus what
// the report reads afterwards.
type rig struct {
	sess      *system.Session
	memory    *system.Memory
	gen       *trafficgen.Generator // nil when replaying a trace
	mon       *trafficgen.Monitor
	bandwidth []string // rows of the bandwidth-over-time table, one per sample under -obs-sample
	tracer    *obs.Tracer
	cmds      commandRecorder // nil unless -check or -cmd-trace
}

// maxSim bounds every run's simulated time.
const maxSim = 100 * sim.Second

// build assembles the simulation the flags describe without starting it: the
// memory side through system.NewMemory, then this command's frontend — a
// generator or trace player, behind an optional capture monitor — on the port
// it hands back (paper §II-E/F, Fig. 1).
func build(f *options, spec dram.Spec, mapping dram.Mapping, live *obs.LiveServer, out io.Writer) (*rig, error) {
	r := &rig{}
	var err error

	// The hub exists before the controllers: the models snapshot it at
	// construction (nil when no probe is attached, so the instrumented paths
	// stay a single branch).
	hub := obs.NewHub()
	if f.obs.Tracing() {
		if r.tracer, err = obs.OpenTrace(f.obs.TracePath); err != nil {
			return nil, err
		}
		hub.Attach(r.tracer)
	}
	if f.recording() {
		r.cmds = commandRecorder{}
		hub.Attach(r.cmds)
	}

	// A replayed trace is read first: the crossbar must be at least as wide
	// as the largest request the source will send.
	var recs []trafficgen.TraceRecord
	widest := f.traf.Bytes
	if f.traceIn != "" {
		if recs, err = readFile(f.traceIn, trafficgen.ParseTrace); err != nil {
			return nil, err
		}
		widest = 0
		for _, rec := range recs {
			widest = max(widest, rec.Size)
		}
	}

	mc, err := f.memory(spec, mapping, hub, widest)
	if err != nil {
		return nil, err
	}
	m, err := system.NewMemory(mc)
	if err != nil {
		return nil, err
	}
	k, reg := m.K, m.Reg
	r.memory = m

	// What the source talks to: the memory port, with the optional capture
	// monitor in front.
	sink := m.FrontPort("gen")
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
		pat, err := f.traf.BuildPattern(spec, mapping, mc.Channels)
		if err != nil {
			return nil, err
		}
		if r.gen, err = trafficgen.New(k, f.traf.GenConfig(), pat, reg, "gen"); err != nil {
			return nil, err
		}
		mem.Connect(r.gen.Port(), sink)
		src = r.gen
	}
	r.sess = m.Session(src)
	r.sess.Deadline = maxSim
	if r.tracer != nil {
		// Trace lines buffered during a quantum flush to the file in the step
		// hook, keeping memory bounded regardless of run length.
		r.sess.OnStep = r.tracer.Flush
	}
	if f.watchdog.Enabled() {
		k.SetWatchdog(f.watchdog)
	}

	// The periodic sampler (-obs-sample / -obs-http) is the one time series:
	// controller state and bandwidth into the registry, each tick's rows into
	// the bandwidth-over-time table and, when there is one, the live endpoint.
	// It arms here, ahead of the traffic source.
	if f.obs.Sampling() {
		sampled := make([]obs.SampleSource, len(m.Ctrls))
		for i, c := range m.Ctrls {
			sampled[i] = c
		}
		err := obs.StartSampler(k, reg, *f.obs.Sample, sampled,
			func(now sim.Tick, rows []obs.Sample) {
				var sum float64
				for _, row := range rows {
					sum += row.Bandwidth
				}
				r.bandwidth = append(r.bandwidth, fmt.Sprintf("  %10s %8.2f GB/s\n", now, sum/1e9))
				if live != nil {
					live.PublishStats(reg, now)
					for i, row := range rows {
						live.PublishSample(now, sampled[i].Name(), row)
					}
				}
			})
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// run is the one run path: parse, wire, drive under the supervisor, report.
func run(args []string, out io.Writer) error {
	f, err := parseFlags(args)
	if f == nil {
		return err
	}
	if f.list {
		cliconfig.ListSpecs(out)
		return nil
	}
	spec, err := dram.ByName(*f.spec)
	if err != nil {
		return err
	}
	mapping, err := f.pol.ParseMapping()
	if err != nil {
		return err
	}
	if f.cmdTraceIn != "" {
		return replayCommands(f, spec, mapping, out)
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

	r, err := build(f, spec, mapping, live, out)
	if err != nil {
		return err
	}
	notify, stopNotify := supervisor.NotifySignals()
	defer stopNotify()
	cfg, err := f.supervision(r, notify)
	if err != nil {
		return err
	}
	res, err := supervisor.Run(cfg, r.sess)
	if err != nil {
		return err
	}
	if res.Interrupted {
		fmt.Fprintf(out, "interrupted at %s; partial results:\n", res.Now)
	} else if r.cmds != nil {
		// Close any open low-power interval so the recorded stream is
		// balanced. The exit commands are stamped at their future exit ticks;
		// nothing runs after them, so the stream stays ordered.
		for _, c := range r.memory.Ctrls {
			if ev, ok := c.(*core.Controller); ok {
				ev.WakeAllRanks()
			}
		}
	}
	if r.tracer != nil {
		// Terminate the JSON array so the file is strict JSON.
		if err := r.tracer.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace written to %s (load in ui.perfetto.dev)\n", f.obs.TracePath)
	}
	if err := report(f, spec, mapping, r, !res.Interrupted, out); err != nil {
		return err
	}
	if res.Interrupted {
		return experiments.ErrInterrupted
	}
	return checkRun(f, spec, mapping, r, out)
}

// supervision is the supervisor's configuration for the run: the checkpoint
// flags, and the recipe a checkpoint records — what every component states,
// the shaping flags and the -trace-in file's hash.
func (f *options) supervision(r *rig, notify <-chan os.Signal) (supervisor.Config, error) {
	cfg := f.sup.Config(notify)
	if !f.sup.Enabled() {
		return cfg, nil
	}
	cfg.Recipe = supervisor.Recipe{Configs: r.sess.Identity(), Flags: f.shaping}
	if f.traceIn != "" {
		sum, err := supervisor.DigestFile(f.traceIn)
		if err != nil {
			return cfg, err
		}
		cfg.Recipe.Inputs = map[string]string{"trace-in": sum}
	}
	cfg.Stats = r.memory.Reg.DumpJSON
	return cfg, nil
}

// report prints the results and writes the requested output files. With
// several channels every per-controller line carries the controller's name.
func report(f *options, spec dram.Spec, mapping dram.Mapping, r *rig, complete bool, out io.Writer) error {
	if r.gen != nil {
		fmt.Fprintf(out, "mean read latency (generator): %.1f ns (p99 %.1f ns, %d samples)\n",
			r.gen.ReadLatency().Mean(), r.gen.ReadLatency().Percentile(99), r.gen.ReadLatency().Count())
	}
	fmt.Fprintf(out, "spec %s, model %s, mapping %s, page %s\n", spec.Name, f.pol.Model, mapping, f.pol.Page)
	fmt.Fprintf(out, "simulated %s in %d events\n", r.sess.Now(), r.memory.K.EventsExecuted())
	n := len(r.memory.Ctrls)
	if n > 1 {
		var bw, util float64
		for _, c := range r.memory.Ctrls {
			bw += c.Bandwidth()
			util += c.BusUtilisation()
		}
		fmt.Fprintf(out, "%d channels behind a crossbar\n", n)
		fmt.Fprintf(out, "aggregate bandwidth %.2f GB/s (%.1f%% avg bus utilisation)\n", bw/1e9, util/float64(n)*100)
	}
	for i, c := range r.memory.Ctrls {
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
				if s, ok := r.memory.Reg.Get("dramctrl." + c.Name() + "." + name).(*stats.Scalar); ok {
					return s.Value()
				}
				return 0
			}
			// Channel i's injector seed is -fault-seed + i (system.NewMemory).
			fmt.Fprintf(out, "%sfaults (seed %d): %.0f corrected, %.0f uncorrected, %.0f retried, %.0f rows retired, %.0f scrubs (%.0f dropped)\n",
				tag, f.faults.Seed+uint64(i), get("correctedErrors"), get("uncorrectedErrors"),
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

	if len(r.bandwidth) > 0 {
		fmt.Fprintln(out, "\nbandwidth over time:")
		for _, row := range r.bandwidth {
			fmt.Fprint(out, row)
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
		if err := writeFile(f.jsonStats, r.memory.Reg.DumpJSON); err != nil {
			return err
		}
		fmt.Fprintf(out, "statistics written to %s\n", f.jsonStats)
	}
	if f.dumpStats {
		fmt.Fprintln(out, "\nstatistics:")
		return r.memory.Reg.Dump(out)
	}
	return nil
}

// readFile parses the file at path with parse.
func readFile[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	file, err := os.Open(path)
	if err != nil {
		var none T
		return none, err
	}
	defer file.Close()
	return parse(file)
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
