package main

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/dram"
	"repro/internal/obs"
	"repro/internal/power"
)

// maxShown is how many violations a verdict prints before "... and N more".
const maxShown = 10

// commandRecorder is the probe behind -check and -cmd-trace: every DRAM
// command, filed under the controller that issued it (obs.CommandFunc drops
// the name, and several channels need it).
type commandRecorder map[string][]power.Command

// HandleEvent records DRAMCommand events and ignores the rest.
func (r commandRecorder) HandleEvent(ev obs.Event) {
	if c, ok := ev.(obs.DRAMCommand); ok {
		r[c.Src] = append(r[c.Src], c.Cmd)
	}
}

// checkRun writes the recorded stream (-cmd-trace) and checks every channel's
// (-check) once the run has ended; a violation anywhere is the run's error.
func checkRun(f *options, spec dram.Spec, mapping dram.Mapping, r *rig, out io.Writer) error {
	if r.cmds == nil {
		return nil
	}
	if f.cmdTrace != "" {
		cmds := r.cmds[r.memory.Ctrls[0].Name()]
		if err := writeFile(f.cmdTrace, func(w io.Writer) error { return power.WriteCommands(w, cmds) }); err != nil {
			return err
		}
		fmt.Fprintf(out, "command trace written to %s (%d commands)\n", f.cmdTrace, len(cmds))
	}
	if !f.check {
		return nil
	}
	cite := func(string, power.Violation) string { return "" }
	if r.tracer != nil {
		var err error
		if cite, err = traceCiter(f.obs.TracePath, out); err != nil {
			return err
		}
	}
	found := 0
	for _, c := range r.memory.Ctrls {
		tag := ""
		if len(r.memory.Ctrls) > 1 {
			tag = c.Name() + ": "
		}
		cited := func(v power.Violation) string { return cite(c.Name(), v) }
		found += verdict(out, tag, spec, f.pol.Page, mapping, r.cmds[c.Name()], cited)
	}
	return violationsErr(found)
}

// replayCommands is -cmd-trace-in: the checker alone over a recorded stream.
func replayCommands(f *options, spec dram.Spec, mapping dram.Mapping, out io.Writer) error {
	cmds, err := readFile(f.cmdTraceIn, power.ReadCommands)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replaying %d recorded DRAM commands from %s\n", len(cmds), f.cmdTraceIn)
	return violationsErr(verdict(out, "", spec, f.pol.Page, mapping, cmds, func(power.Violation) string { return "" }))
}

// verdict checks one channel's command stream against the device and prints
// the result, each line prefixed with tag: clean, or the count and the first
// maxShown violations, each followed by its trace span when cite finds one.
// It returns the number of violations.
func verdict(out io.Writer, tag string, spec dram.Spec, page string, mapping dram.Mapping,
	cmds []power.Command, cite func(power.Violation) string) int {
	violations := power.CheckTiming(spec, cmds)
	fmt.Fprintf(out, "%schecked %d DRAM commands against %s (%s page, %s)\n", tag, len(cmds), spec.Name, page, mapping)
	if len(violations) == 0 {
		fmt.Fprintf(out, "%sprotocol clean: no timing violations\n", tag)
		return 0
	}
	fmt.Fprintf(out, "%s%d violations:\n", tag, len(violations))
	for i, v := range violations {
		if i == maxShown {
			fmt.Fprintf(out, "%s  ... and %d more\n", tag, len(violations)-maxShown)
			break
		}
		fmt.Fprintf(out, "%s  %s\n", tag, v)
		if c := cite(v); c != "" {
			fmt.Fprintf(out, "%s    %s\n", tag, c)
		}
	}
	return len(violations)
}

// violationsErr is the run's error when the checker found n violations; the
// findings are already printed.
func violationsErr(n int) error {
	if n == 0 {
		return nil
	}
	return fmt.Errorf("protocol check failed: %d timing violations", n)
}

// traceCiter reads the just-written trace back, strictly: it must be one
// terminated JSON document with every packet-lifecycle span closed, or the
// check fails; a good one is reported on out. It returns a function that
// locates the trace event a violating command of controller src rendered as,
// so findings can be cross-referenced with the Perfetto view: RD/WR map to
// "burst" spans, REF to "refresh" spans, the other commands to "cmd" instants
// — all on src's process, identified by their exact tick-derived timestamp.
// When a packet-lifecycle firstCmd marker shares the timestamp, its async
// span id is cited too.
func traceCiter(path string, out io.Writer) (func(src string, v power.Violation) string, error) {
	sum, events, err := obs.ValidateTraceStrict(path)
	if err == nil && sum.OpenSpans() != 0 {
		err = fmt.Errorf("%d packet-lifecycle spans left open", sum.OpenSpans())
	}
	if err != nil {
		return nil, fmt.Errorf("reading back trace %s: %w", path, err)
	}
	fmt.Fprintf(out, "trace %s read back: %d events, strict JSON, every span closed\n", path, sum.Events)
	type at struct {
		pid int
		ts  string
	}
	pids := make(map[string]int)
	byTs := make(map[at][]obs.TraceEvent)
	for _, e := range events {
		if e.Ph == "M" {
			var args struct {
				Name string `json:"name"`
			}
			if e.Name == "process_name" && json.Unmarshal(e.Args, &args) == nil {
				pids[args.Name] = e.Pid
			}
			continue
		}
		k := at{e.Pid, e.Ts.String()}
		byTs[k] = append(byTs[k], e)
	}
	return func(src string, v power.Violation) string {
		ts := fmt.Sprintf("%d.%06d", int64(v.Cmd.At)/1_000_000, int64(v.Cmd.At)%1_000_000)
		wantCat, wantName := "cmd", v.Cmd.Kind.String()
		switch v.Cmd.Kind {
		case power.CmdRD, power.CmdWR:
			wantCat = "burst"
		case power.CmdREF:
			wantCat = "refresh"
		}
		here := byTs[at{pids[src], ts}]
		span := ""
		for _, e := range here {
			if e.Cat == "pkt" && e.Ph == "n" {
				span = fmt.Sprintf(" span=%d", e.ID)
			}
		}
		for _, e := range here {
			if e.Cat == wantCat && e.Name == wantName {
				return fmt.Sprintf("trace: %s %q pid=%d tid=%d ts=%sus%s", e.Cat, e.Name, e.Pid, e.Tid, e.Ts, span)
			}
		}
		return ""
	}, nil
}
