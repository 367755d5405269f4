// Command protocheck replays a request stream (a trace file or a synthetic
// pattern) through the event-based controller under an arbitrary
// configuration, captures the DRAM command stream the controller issues,
// and verifies every timing constraint with the independent protocol
// checker — a configuration linter: if a policy combination ever produced
// an illegal command schedule, this is the tool that would catch it.
//
// The captured command stream can also be written out (-cmd-trace) and
// replayed later through the checker alone (-cmd-trace-in), which turns the
// checker into a record/replay timing oracle: archive the schedule a run
// produced, re-verify it offline against any spec revision, no simulation
// required.
//
//	protocheck -spec DDR3-1600-x64 -page closed -requests 50000
//	protocheck -trace-in capture.txt -spec LPDDR3-1600-x32
//	protocheck -pattern bursty -powerdown 500 -selfrefresh 3000 -cmd-trace cmds.txt
//	protocheck -cmd-trace-in cmds.txt -spec DDR3-1600-x64
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/experiments/cliconfig"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trafficgen"
)

// errViolations marks a command stream the checker rejected; the findings
// are already printed, so main only sets the exit status CI gates on.
var errViolations = errors.New("timing violations")

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil:
	case errors.Is(err, errViolations):
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "protocheck:", err)
		os.Exit(1)
	}
}

// run is the whole command: parse, simulate (or read a recorded stream),
// check, report.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("protocheck", flag.ContinueOnError)
	var (
		sf       = cliconfig.AddSpec(fs, "DDR3-1600-x64")
		pol      = cliconfig.AddPolicy(fs, cliconfig.PolicyFlags{})
		traffic  = cliconfig.AddTraffic(fs, 20000)
		traceIn  = fs.String("trace-in", "", "replay this request trace file instead of synthetic traffic")
		traceOut = fs.String("trace", "", "write a Chrome/Perfetto trace here; violations cite its spans")
		cmdOut   = fs.String("cmd-trace", "", "record the verified DRAM command stream to this file")
		cmdIn    = fs.String("cmd-trace-in", "", "check a recorded DRAM command stream (no simulation)")
		pdIdleNs = fs.Int64("powerdown", 0, "power-down after N ns of rank idleness (0 = off)")
		srIdleNs = fs.Int64("selfrefresh", 0, "self-refresh after N ns of rank idleness (0 = off)")
		maxShow  = fs.Int("show", 10, "maximum violations to print")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	spec, err := sf.Resolve()
	if err != nil {
		return err
	}
	mapping, err := pol.ParseMapping()
	if err != nil {
		return err
	}

	// Oracle replay mode: no simulation, just the checker over a recorded
	// command stream.
	if *cmdIn != "" {
		f, err := os.Open(*cmdIn)
		if err != nil {
			return err
		}
		cmds, err := power.ReadCommands(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "replaying %d recorded DRAM commands from %s\n", len(cmds), *cmdIn)
		return report(out, spec, pol, mapping, cmds, nil, *maxShow)
	}

	var trace power.CommandTrace
	hub := obs.NewHub()
	hub.Attach(obs.CommandFunc(trace.Record))
	var tracer *obs.Tracer
	if *traceOut != "" {
		if tracer, err = obs.OpenTrace(*traceOut); err != nil {
			return err
		}
		hub.Attach(tracer)
	}
	cfg := core.DefaultConfig(spec)
	cfg.Mapping = mapping
	cfg.PowerDownIdle = sim.Tick(*pdIdleNs) * sim.Nanosecond
	cfg.SelfRefreshIdle = sim.Tick(*srIdleNs) * sim.Nanosecond
	if cfg.Page, err = pol.CorePage(); err != nil {
		return err
	}
	m, err := system.NewMemory(system.MemoryConfig{Root: "protocheck", Kind: system.EventBased, Channels: 1, Event: cfg, Probes: hub})
	if err != nil {
		return err
	}

	var src system.Source
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			return err
		}
		recs, err := trafficgen.ParseTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		player := trafficgen.NewTracePlayer(m.K, recs, 0)
		mem.Connect(player.Port(), m.FrontPort("gen"))
		src = player
		fmt.Fprintf(out, "replaying %d records from %s\n", len(recs), *traceIn)
	} else {
		pattern, err := traffic.BuildPattern(spec, mapping, 1)
		if err != nil {
			return err
		}
		gen, err := trafficgen.New(m.K, traffic.GenConfig(), pattern, m.Reg, "gen")
		if err != nil {
			return err
		}
		mem.Connect(gen.Port(), m.FrontPort("gen"))
		src = gen
	}

	sess := m.Session(src)
	if tracer != nil {
		sess.OnStep = tracer.Flush
	}
	if err := sess.Run(100 * sim.Second); err != nil {
		return err
	}
	// Close any open low-power interval so the recorded stream is balanced:
	// a replayed oracle sees the same PDE/PDX pairing the live checker did.
	// (The exit commands are stamped at their future exit ticks; nothing runs
	// after them, so the stream stays ordered.)
	m.Ctrls[0].(*core.Controller).WakeAllRanks()
	var cite func(power.Violation) string
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace written to %s\n", *traceOut)
		cite, err = traceCiter(*traceOut)
		if err != nil {
			return err
		}
	}

	cmds := trace.Commands()
	if *cmdOut != "" {
		f, err := os.Create(*cmdOut)
		if err != nil {
			return err
		}
		if err := power.WriteCommands(f, cmds); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "command trace written to %s (%d commands)\n", *cmdOut, len(cmds))
	}
	return report(out, spec, pol, mapping, cmds, cite, *maxShow)
}

// report runs the checker and prints the verdict; any violation is
// errViolations, so CI can gate on a clean protocol.
func report(out io.Writer, spec dram.Spec, pol *cliconfig.Policy, mapping dram.Mapping,
	cmds []power.Command, cite func(power.Violation) string, maxShow int) error {
	violations := power.CheckTiming(spec, cmds)
	fmt.Fprintf(out, "checked %d DRAM commands against %s (%s page, %s)\n",
		len(cmds), spec.Name, pol.Page, mapping)
	if len(violations) == 0 {
		fmt.Fprintln(out, "protocol clean: no timing violations")
		return nil
	}
	fmt.Fprintf(out, "%d violations:\n", len(violations))
	for i, v := range violations {
		if i >= maxShow {
			fmt.Fprintf(out, "  ... and %d more\n", len(violations)-maxShow)
			break
		}
		fmt.Fprintf(out, "  %s\n", v)
		if cite != nil {
			if c := cite(v); c != "" {
				fmt.Fprintf(out, "    %s\n", c)
			}
		}
	}
	return errViolations
}

// traceCiter reads the just-written trace back and returns a function that
// locates the trace event a violating command rendered as, so findings can
// be cross-referenced with the Perfetto view: RD/WR map to "burst" spans,
// ACT/PRE to "cmd" instants, REF to "refresh" spans — all identified by
// their exact tick-derived timestamp. When a packet-lifecycle firstCmd
// marker shares the timestamp, its async span id is cited too.
func traceCiter(path string) (func(power.Violation) string, error) {
	_, events, err := obs.ReadTraceFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading back trace %s: %w", path, err)
	}
	byTs := make(map[string][]obs.TraceEvent)
	for _, e := range events {
		if e.Ph == "M" {
			continue
		}
		byTs[e.Ts.String()] = append(byTs[e.Ts.String()], e)
	}
	return func(v power.Violation) string {
		ts := fmt.Sprintf("%d.%06d", int64(v.Cmd.At)/1_000_000, int64(v.Cmd.At)%1_000_000)
		var wantCat, wantName string
		switch v.Cmd.Kind {
		case power.CmdRD:
			wantCat, wantName = "burst", "RD"
		case power.CmdWR:
			wantCat, wantName = "burst", "WR"
		case power.CmdREF:
			wantCat, wantName = "refresh", "REF"
		default:
			wantCat, wantName = "cmd", v.Cmd.Kind.String()
		}
		var spanID uint64
		var haveSpan bool
		for _, e := range byTs[ts] {
			if e.Cat == "pkt" && e.Ph == "n" {
				spanID, haveSpan = e.ID, true
			}
		}
		for _, e := range byTs[ts] {
			if e.Cat != wantCat || e.Name != wantName {
				continue
			}
			c := fmt.Sprintf("trace: %s %q pid=%d tid=%d ts=%sus", e.Cat, e.Name, e.Pid, e.Tid, e.Ts)
			if haveSpan {
				c += fmt.Sprintf(" span=%d", spanID)
			}
			return c
		}
		return ""
	}, nil
}
