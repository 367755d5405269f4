package main

// Coverage of the one run path, on one channel and on several: all of the old
// recovery smoke (in-process but for its kill -9, which re-executes this test
// binary as the tool), all of the old trace smoke, the old standards smoke and
// its protocol-oracle half (-check, -cmd-trace, -cmd-trace-in), plus every flag
// composing with -channels.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/clitest"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/supervisor"
	"repro/internal/system"
	"repro/internal/trafficgen"
)

// runAsTool, set in the environment of a re-executed test binary, makes it
// behave as the dramctrl command: a process that can be killed.
const runAsTool = "DRAMCTRL_TEST_RUN_AS_TOOL"

func TestMain(m *testing.M) {
	if os.Getenv(runAsTool) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// tool returns the command running this binary as dramctrl with args.
func tool(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsTool+"=1")
	return cmd
}

// topologies are the flag prefixes for one controller and for four behind a
// crossbar.
var topologies = map[string][]string{
	"1ch": {"-pattern", "random", "-reads", "67", "-requests", "3000"},
	"4ch": {"-pattern", "random", "-reads", "67", "-requests", "3000", "-channels", "4"},
}

// dramctrl runs the tool in-process and returns its stdout.
func dramctrl(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	out, err := dramctrl(t, args...)
	if err != nil {
		t.Fatalf("dramctrl %s: %v", strings.Join(args, " "), err)
	}
	return out
}

func read(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var simulatedLine = regexp.MustCompile(`(?m)^simulated .*$`)

// Resuming a FINISHED run must change nothing: same simulated line, same
// statistics, same checkpoint bytes — however often it is repeated.
func TestResumeOfFinishedRunIsIdempotent(t *testing.T) {
	for name, topo := range topologies {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ckpt, js := filepath.Join(dir, "run.ckpt"), filepath.Join(dir, "stats.json")
			args := append(topo[:len(topo):len(topo)], "-checkpoint", ckpt, "-json", js)
			first := simulatedLine.FindString(mustRun(t, args...))
			wantCkpt, wantJSON := read(t, ckpt), read(t, js)
			if first == "" {
				t.Fatal("no simulated line in the output")
			}
			for i := 1; i <= 2; i++ {
				if got := simulatedLine.FindString(mustRun(t, append(args, "-resume")...)); got != first {
					t.Errorf("resume %d: %q, first run %q", i, got, first)
				}
				if !bytes.Equal(read(t, js), wantJSON) {
					t.Errorf("resume %d: statistics changed", i)
				}
				if !bytes.Equal(read(t, ckpt), wantCkpt) {
					t.Errorf("resume %d: checkpoint file changed", i)
				}
			}
		})
	}
}

// A run that dies mid-flight (here: the watchdog's event budget) and is
// resumed from its last periodic checkpoint must finish with the statistics
// — and, when traced, the trace file — of the uninterrupted run, byte for
// byte, on the event model and on the sampled cycle model, whose stdout
// (the statistics dump and the bandwidth-over-time table) must match too.
func TestMidRunResumeMatchesUninterrupted(t *testing.T) {
	// The cycle model fires more events per simulated microsecond, so its
	// watchdog budget is larger: each trips after a 2 us checkpoint. Its
	// traces are compared by resume_test.go.
	models := map[string]struct {
		flags  []string
		events string
		traced []bool
	}{
		"":               {nil, "4000", []bool{false, true}},
		"-cycle-sampled": {[]string{"-model", "cycle", "-obs-sample", "2000", "-stats"}, "12000", []bool{false}},
	}
	for name, topo := range topologies {
		for model, m := range models {
			for _, traced := range m.traced {
				t.Run(name+model+map[bool]string{false: "", true: "-traced"}[traced], func(t *testing.T) {
					midRunResume(t, slices.Concat(topo, m.flags), m.events, traced)
				})
			}
		}
	}
}

// midRunResume trips the watchdog after events on the run args describe,
// past a periodic checkpoint, resumes it, and compares with the
// uninterrupted run.
func midRunResume(t *testing.T, run []string, events string, traced bool) {
	dir := t.TempDir()
	file := func(n string) string { return filepath.Join(dir, n) }
	with := func(js, trace string, extra ...string) []string {
		args := append(run[:len(run):len(run)], "-json", js)
		if traced {
			args = append(args, "-trace", trace)
		}
		return append(args, extra...)
	}
	ref := mustRun(t, with(file("ref.json"), file("ref.trace"))...)

	ckpt := []string{"-checkpoint", file("run.ckpt"), "-checkpoint-every", "2000"}
	_, err := dramctrl(t, with(file("run.json"), file("run.trace"), append(ckpt, "-max-events", events)...)...)
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("victim run: err = %v, want a watchdog trip", err)
	}
	if _, err := os.Stat(file("run.json")); err == nil {
		t.Fatal("victim run wrote its statistics: it finished before the trip")
	}
	if _, err := os.Stat(file("run.ckpt")); err != nil {
		t.Fatalf("victim run left no periodic checkpoint to resume from: %v", err)
	}
	// The checkpoint is a recipe at the last periodic tick before the trip,
	// and the postmortem the recipe of the trip itself.
	ck, err := supervisor.Decode(read(t, file("run.ckpt")))
	if err != nil || ck.Tick == 0 || ck.Tick%(2*sim.Microsecond) != 0 || ck.Failed != "" {
		t.Fatalf("checkpoint %+v, %v; want a periodic recipe mid-run", ck, err)
	}
	if pm, err := supervisor.Decode(read(t, file("run.ckpt.postmortem"))); err != nil || pm.Tick <= ck.Tick || !strings.Contains(pm.Failed, "watchdog") {
		t.Errorf("postmortem %+v, %v; want the watchdog trip after %s", pm, err, ck.Tick)
	}
	got := mustRun(t, with(file("run.json"), file("run.trace"), append(ckpt, "-resume")...)...)

	if got, want := strings.ReplaceAll(got, "run.", "ref."), ref; got != want {
		t.Errorf("resumed stdout differs from the uninterrupted run's:\n%s\nwant:\n%s", got, want)
	}
	if !bytes.Equal(read(t, file("run.json")), read(t, file("ref.json"))) {
		t.Error("resumed statistics differ from the uninterrupted run")
	}
	if traced && !bytes.Equal(read(t, file("run.trace")), read(t, file("ref.trace"))) {
		t.Error("resumed trace differs from the uninterrupted run")
	}
}

// A supervised run killed with SIGKILL mid-flight — no handler runs, nothing
// is flushed — and resumed from its last periodic checkpoint finishes with
// the statistics (and, when traced, the Perfetto trace) of the uninterrupted
// run, byte for byte. The low-power row's ranks spend most of the run in
// power-down or self-refresh, so the surviving checkpoint sits inside a
// low-power interval (TestResumeMidLowPower pins the exact mid-PD / mid-SR
// instants). The SIGINT row is the graceful stop: the process
// writes a final checkpoint, exits 130, and resumes to the same bytes.
func TestKilledRunResumesToUninterruptedStatistics(t *testing.T) {
	if testing.Short() {
		t.Skip("kills and resumes a real process")
	}
	random := []string{"-pattern", "random", "-reads", "67", "-seed", "7"}
	for _, row := range []struct {
		name     string
		traffic  []string
		requests int // grown until the signal lands before the victim finishes
		traced   bool
		sig      syscall.Signal
		exit     int // the victim's exit code: -1 when the signal killed it
	}{
		{"random", random, 400_000, false, syscall.SIGKILL, -1},
		{"bursty-lowpower", []string{"-pattern", "bursty", "-reads", "67", "-seed", "7",
			"-burst-off-ns", "5000", "-powerdown", "300", "-selfrefresh", "2000"}, 40_000, true, syscall.SIGKILL, -1},
		{"random-sigint", random, 400_000, false, syscall.SIGINT, 130},
	} {
		t.Run(row.name, func(t *testing.T) {
			for requests := row.requests; ; requests *= 2 {
				dir := t.TempDir()
				file := func(n string) string { return filepath.Join(dir, n) }
				with := func(js, trace string, extra ...string) []string {
					args := append(row.traffic[:len(row.traffic):len(row.traffic)], "-requests", strconv.Itoa(requests), "-json", js)
					if row.traced {
						args = append(args, "-trace", trace)
					}
					return append(args, extra...)
				}
				ckpt := []string{"-checkpoint", file("run.ckpt"), "-checkpoint-every", "50000"}

				victim := tool(with(file("victim.json"), file("run.trace"), ckpt...)...)
				if err := victim.Start(); err != nil {
					t.Fatal(err)
				}
				for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
					if _, err := os.Stat(file("run.ckpt")); err == nil {
						break
					}
					if time.Now().After(deadline) {
						victim.Process.Kill() //nolint:errcheck // already failing
						t.Fatal("no checkpoint appeared before the signal")
					}
				}
				if err := victim.Process.Signal(row.sig); err != nil {
					t.Fatal(err)
				}
				victim.Wait() //nolint:errcheck // the exit code is what is checked
				switch code := victim.ProcessState.ExitCode(); code {
				case row.exit:
				case 0:
					if requests > 50_000_000 {
						t.Fatal("the victim keeps finishing before the signal")
					}
					continue // it finished before the signal landed: run longer
				default:
					t.Fatalf("victim exited %d after %v, want %d", code, row.sig, row.exit)
				}
				t.Logf("%v mid-run at -requests %d", row.sig, requests)

				resumed, err := tool(with(file("resumed.json"), file("run.trace"), append(ckpt, "-resume")...)...).CombinedOutput()
				if err != nil || !bytes.Contains(resumed, []byte("supervisor: resumed from")) {
					t.Fatalf("resume: %v; it must load the checkpoint:\n%s", err, resumed)
				}
				ref := mustRun(t, with(file("ref.json"), file("ref.trace"))...)
				if !bytes.Equal(read(t, file("resumed.json")), read(t, file("ref.json"))) {
					t.Error("statistics of the killed and resumed run differ from the uninterrupted run")
				}
				if row.traced {
					if !strings.Contains(ref, "self-refresh time") {
						t.Errorf("the reference run never entered self-refresh:\n%s", ref)
					}
					if sum, _, err := obs.ValidateTraceStrict(file("ref.trace")); err != nil || sum.PowerSpans == 0 || sum.OpenSpans() != 0 {
						t.Errorf("reference trace fails the strict trace check: %v, %+v", err, sum)
					}
					if !bytes.Equal(read(t, file("run.trace")), read(t, file("ref.trace"))) {
						t.Error("trace of the killed and resumed run differs from the uninterrupted run")
					}
				}
				return
			}
		})
	}
}

// A checkpoint with one flipped byte is refused with a checksum error — not
// a panic, not a silently wrong resume — and left as it was found.
func TestCorruptCheckpointIsRefused(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	args := []string{"-pattern", "random", "-requests", "2000", "-checkpoint", ckpt}
	mustRun(t, args...)
	corrupt := read(t, ckpt)
	corrupt[len(corrupt)/2] ^= 0xff
	if err := os.WriteFile(ckpt, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := dramctrl(t, append(args, "-resume")...); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("resume from a corrupted checkpoint: err = %v, want a checksum mismatch", err)
	}
	if !bytes.Equal(read(t, ckpt), corrupt) {
		t.Error("the refused resume changed the checkpoint file")
	}
}

// A traced run writes strict Chrome trace JSON with every lifecycle span
// closed, and the same flags write the same bytes again — on one channel and
// on four. (That an interrupted and resumed run reproduces the uninterrupted
// trace is TestMidRunResumeMatchesUninterrupted's -traced rows.)
func TestTraceIsStrictJSONAndDeterministic(t *testing.T) {
	for name, topo := range topologies {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
			mustRun(t, append(topo[:len(topo):len(topo)], "-seed", "7", "-trace", a)...)
			mustRun(t, append(topo[:len(topo):len(topo)], "-seed", "7", "-trace", b)...)
			if !bytes.Equal(read(t, a), read(t, b)) {
				t.Error("identical runs wrote different traces")
			}
			sum, _, err := obs.ValidateTraceStrict(a)
			if err != nil {
				t.Fatal(err)
			}
			if !sum.Terminated || sum.Bursts == 0 || sum.OpenSpans() != 0 {
				t.Errorf("trace not well formed: terminated %v, %d bursts, %d spans open", sum.Terminated, sum.Bursts, sum.OpenSpans())
			}
			if want := map[string]int{"1ch": 1, "4ch": 5}[name]; len(sum.Processes) != want { // mc, or xbar + mc0..mc3
				t.Errorf("trace processes %v, want %d of them", sum.Processes, want)
			}
		})
	}
}

// Every packet's lifecycle span ends under the name it began with — the
// strict reader refuses a trace where one does not — on both models and
// behind a crossbar: a responder emits the end before it sends, while the
// packet still holds its address, not after the requestor has recycled it.
func TestTraceSpansEndAsTheyBegin(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		ends int // one span per request at each component that queues it
	}{
		{"event", nil, 200},
		{"cycle", []string{"-model", "cycle"}, 200},
		{"4ch", []string{"-channels", "4"}, 400},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "p.json")
			mustRun(t, append(c.args, "-requests", "200", "-trace", path)...)
			sum, _, err := obs.ValidateTraceStrict(path)
			if err != nil {
				t.Fatal(err)
			}
			if sum.SpanEnds != c.ends || sum.OpenSpans() != 0 {
				t.Errorf("%d spans ended, %d left open; want %d ended, none open", sum.SpanEnds, sum.OpenSpans(), c.ends)
			}
		})
	}
}

// -check reads its -trace back strictly: the trace the run wrote passes, and
// one cut mid-line or with a lifecycle span left open is refused.
func TestCheckReadsTraceBackStrictly(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "run.json")
	if out := mustRun(t, "-pattern", "random", "-requests", "2000", "-check", "-trace", trace); !strings.Contains(out, "read back: ") {
		t.Errorf("-check -trace did not report the read-back:\n%s", out)
	}
	b := read(t, trace)
	end := bytes.Index(b, []byte(`"ph":"e"`))
	if end < 0 {
		t.Fatal("the trace closes no lifecycle span")
	}
	lineStart := bytes.LastIndexByte(b[:end], '\n') + 1
	lineEnd := end + bytes.IndexByte(b[end:], '\n') + 1
	for _, c := range []struct {
		name string
		body []byte
		want string
	}{
		{"cut mid-line", b[:len(b)/2], "not a JSON array"},
		{"span left open", slices.Concat(b[:lineStart], b[lineEnd:]), "1 packet-lifecycle spans left open"},
	} {
		if err := os.WriteFile(trace, c.body, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := traceCiter(trace, io.Discard); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// The trace tells the same story as the counters it explains. On DDR3-1600
// with power-down after 300 ns and self-refresh after 2 µs under bursty
// traffic, the traced bursts, activates, refreshes and power-down and
// self-refresh residency equal the controller's PowerStats exactly once every
// rank is awake: fixed-point timestamps invert back to ticks.
func TestTraceAgreesWithCounters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	tracer, err := obs.OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	hub := obs.NewHub()
	hub.Attach(tracer)
	cfg := core.DefaultConfig(dram.DDR3_1600_x64())
	cfg.PowerDownIdle = 300 * sim.Nanosecond
	cfg.SelfRefreshIdle = 2 * sim.Microsecond
	rig, err := experiments.Runner{}.Run(experiments.Point{
		Name: "traced", Kind: system.EventBased, Event: cfg,
		Gen: trafficgen.Config{RequestBytes: 64, MaxOutstanding: 32, Count: 1000},
		Pattern: &trafficgen.Bursty{
			Start: 0, End: 1 << 28, Align: 64, ReadPercent: 67, Seed: 1,
			BurstLen: 16, OffTime: 5 * sim.Microsecond,
		},
		Probes: hub, Limit: 100 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := rig.Ctrls[0].(*core.Controller)
	ctrl.WakeAllRanks()
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	sum, _, err := obs.ValidateTraceStrict(path)
	if err != nil {
		t.Fatal(err)
	}
	act := ctrl.PowerStats()
	var pd, sr sim.Tick
	for r := range act.SRTime {
		pd += act.PrePDTime[r] + act.ActPDTime[r]
		sr += act.SRTime[r]
	}
	if sum.OpenSpans() != 0 || pd == 0 || sr == 0 {
		t.Errorf("%d lifecycle spans open; %d power-down and %d self-refresh ticks, want some of each", sum.OpenSpans(), pd, sr)
	}
	for _, c := range []struct {
		what        string
		trace, ctrl int64
	}{
		{"bursts", int64(sum.Bursts), int64(act.ReadBursts + act.WriteBursts)},
		{"activates", int64(sum.Activates), int64(act.Activations)},
		{"refreshes", int64(sum.Refreshes), int64(act.Refreshes)},
		{"power-down ticks", sum.PDTicks, int64(pd)},
		{"self-refresh ticks", sum.SRTicks, int64(sr)},
	} {
		if c.trace != c.ctrl {
			t.Errorf("%s: trace %d, controller %d", c.what, c.trace, c.ctrl)
		}
	}
}

// Every supported standard's representative preset completes a run, and
// -spec ddr3 is the default preset under another name (bit-compat guard).
func TestStandardsRunAndResolve(t *testing.T) {
	traffic := []string{"-pattern", "random", "-reads", "67", "-requests", "5000", "-seed", "7"}
	for _, std := range []string{"ddr3", "ddr4", "ddr5", "lpddr5"} {
		out := mustRun(t, append(traffic, "-spec", std)...)
		if !regexp.MustCompile(`(?m)^bandwidth [1-9]\d*\.\d+ GB/s`).MatchString(out) {
			t.Errorf("-spec %s reported no bandwidth:\n%s", std, out)
		}
	}
	if byStd, byName := mustRun(t, append(traffic, "-spec", "ddr3")...), mustRun(t, append(traffic, "-spec", "DDR3-1600-x64")...); byStd != byName {
		t.Errorf("-spec ddr3 and -spec DDR3-1600-x64 differ:\n%s\n%s", byStd, byName)
	}
}

// -channels is a parameter of the one wiring, so every flag composes with it:
// each flag the sharded wiring used to reject runs on two channels and shows
// its effect there. (The name is the one the test has always had.)
func TestShardedHonoursOrRejectsFlags(t *testing.T) {
	base := []string{"-channels", "2", "-pattern", "random", "-requests", "2000"}
	with := func(extra ...string) []string { return append(base[:len(base):len(base)], extra...) }
	bandwidth := regexp.MustCompile(`(?m)^aggregate bandwidth .*$`)
	file := func(n string) string { return filepath.Join(t.TempDir(), n) }

	plain := mustRun(t, base...)
	frfcfs := bandwidth.FindString(plain)
	if !strings.Contains(plain, "2 channels behind a crossbar\n") || frfcfs == "" {
		t.Fatalf("two-channel report lacks the topology or the aggregate line:\n%s", plain)
	}
	for _, sched := range [][]string{{"-sched", "fcfs"}, {"-model", "cycle", "-sched", "fcfs"}} {
		if got := bandwidth.FindString(mustRun(t, with(sched...)...)); got == frfcfs || got == "" {
			t.Errorf("%v printed %q, the default scheduler %q", sched, got, frfcfs)
		}
	}

	if _, err := dramctrl(t, with("-max-events", "10")...); err == nil ||
		!regexp.MustCompile(`watchdog: event limit 10 reached at \d+`).MatchString(err.Error()) {
		t.Errorf("-max-events 10: err = %v, want the watchdog's tick-stamped error", err)
	}

	// The fault group: both controllers inject, each from its own seed, and
	// each prints its own fault line. One replay attempt retires rows; four
	// (the default) do not, and a slower correction moves the event count.
	ber := []string{"-ber-correctable", "0.05", "-ber-uncorrectable", "0.02", "-ber-transient", "0.1", "-fault-seed", "7"}
	faulty := mustRun(t, with(append(ber, "-ecc-latency", "20", "-retry-limit", "1")...)...)
	slow := mustRun(t, with(append(ber, "-ecc-latency", "200", "-retry-limit", "4")...)...)
	for i, seed := range []int{7, 8} {
		counts := regexp.MustCompile(fmt.Sprintf(
			`(?m)^mc%d: faults \(seed %d\): (\d+) corrected, (\d+) uncorrected, (\d+) retried, (\d+) rows retired`, i, seed))
		got := counts.FindStringSubmatch(faulty)
		if got == nil || slices.Contains(got[1:], "0") {
			t.Errorf("mc%d under seed %d: want corrected, uncorrected, retried and retired rows all counted:\n%s", i, seed, faulty)
		}
		if got := counts.FindStringSubmatch(slow); got == nil || got[4] != "0" {
			t.Errorf("mc%d with -retry-limit 4 retired rows:\n%s", i, slow)
		}
	}
	if a, b := simulatedLine.FindString(faulty), simulatedLine.FindString(slow); a == b {
		t.Errorf("-ecc-latency 20 and 200 both print %q", a)
	}

	// Capture and replay: what -trace-out records drives the same channels
	// through -trace-in to the same tick and the same statistics, all but the
	// generator's (gen.*) and the capture monitor's (mon.*). Two channels
	// never refuse the generator, so the event count matches too; one channel
	// under a linear stream refuses it 2980 times, and the player's retries
	// must land every request where the generator's did.
	memoryRows := func(out string) []string {
		var rows []string
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "dramctrl.") && !strings.HasPrefix(l, "dramctrl.gen.") && !strings.HasPrefix(l, "dramctrl.mon.") {
				rows = append(rows, l)
			}
		}
		return rows
	}
	for _, row := range []struct {
		channels, requests, retries string
		flags                       []string
	}{
		{"2", "2000", "0", base},
		{"1", "3000", "2980", []string{"-channels", "1", "-pattern", "linear", "-requests", "3000"}},
	} {
		capture := file("cap.txt")
		captured := mustRun(t, append(row.flags[:len(row.flags):len(row.flags)], "-trace-out", capture, "-stats")...)
		replayed := mustRun(t, "-channels", row.channels, "-trace-in", capture, "-stats")
		if !regexp.MustCompile(`(?m)^dramctrl\.gen\.retries +` + row.retries + ` `).MatchString(captured) {
			t.Errorf("%s channel(s): the capture's gen.retries is not %s:\n%s", row.channels, row.retries, captured)
		}
		want, got := simulatedLine.FindString(captured), simulatedLine.FindString(replayed)
		if row.retries != "0" { // the tick alone: refusals cost the capture events
			want, _, _ = strings.Cut(want, " in ")
			got, _, _ = strings.Cut(got, " in ")
		}
		if want == "" || got != want || !strings.Contains(replayed, "replaying "+row.requests+" trace records") {
			t.Errorf("%s channel(s): replay printed %q, the captured run %q:\n%s", row.channels, got, want, replayed)
		}
		if a, b := memoryRows(captured), memoryRows(replayed); len(a) == 0 || !slices.Equal(a, b) {
			t.Errorf("%s channel(s): the replay's statistics differ from the capture's:\ncapture %q\nreplay  %q", row.channels, a, b)
		}
	}

	// The sampler reads every controller; the bandwidth table sums them.
	js := file("stats.json")
	sampled := mustRun(t, with("-obs-sample", "1000", "-obs-http", "localhost:0", "-json", js)...)
	for _, stat := range []string{`"dramctrl.obs.mc0.readQueueDepth"`, `"dramctrl.obs.mc1.readQueueDepth"`,
		`"dramctrl.obs.mc0.bandwidth"`, `"dramctrl.obs.mc1.bandwidth"`} {
		if !bytes.Contains(read(t, js), []byte(stat)) {
			t.Errorf("-obs-sample: %s missing from the statistics", stat)
		}
	}
	if !regexp.MustCompile(`(?m)^bandwidth over time:\n +1us +\d+\.\d+ GB/s$`).MatchString(sampled) {
		t.Errorf("-obs-sample 1000 printed no bandwidth-over-time table:\n%s", sampled)
	}

	const undefined = "flag provided but not defined"
	const noChannel = "need at least one channel"
	const eventOnly = "only modelled by the event-based controller"
	const oversized = "a 4096-byte request needs 64 bursts, more than the "
	wide := file("wide.txt")
	if err := os.WriteFile(wide, []byte("0 r 0x0 64\n1000 w 0x1000 4096\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		want  string
		flags []string
	}{
		// A read percentage outside 0-100 is not clamped to all reads or
		// all writes.
		{`invalid value "150" for flag -reads`, []string{"-reads", "150"}},
		{`invalid value "-20" for flag -reads`, []string{"-reads", "-20"}},
		// A channel count below one is not "one channel" (a later -channels
		// overrides the base's), and the worker and quantum knobs are gone.
		{noChannel, []string{"-channels", "0"}}, {noChannel, []string{"-channels", "-3"}},
		{undefined + ": -parallel", []string{"-parallel", "2"}},
		{undefined + ": -lookahead-quanta", []string{"-lookahead-quanta", "8"}},
		{undefined + ": -interval", []string{"-interval", "1000"}},
		// Nothing is retried in process and checkpoints follow simulated time.
		{undefined + ": -max-retries", []string{"-max-retries", "1"}},
		{undefined + ": -checkpoint-wall", []string{"-checkpoint-wall", "1s"}},
		// Parsing stops at a word that is no flag; the flags after it would
		// be dropped and another configuration run.
		{`unexpected argument "stray"`, []string{"-requests", "100", "stray", "-pattern", "random"}},
		// What the cycle model cannot honour is refused, never ignored.
		{"fault injection is " + eventOnly, []string{"-model", "cycle", "-ber-correctable", "0.01"}},
		{"-powerdown/-selfrefresh are " + eventOnly, []string{"-model", "cycle", "-powerdown", "300"}},
		{"-powerdown/-selfrefresh are " + eventOnly, []string{"-model", "cycle", "-selfrefresh", "2000"}},
		{"-page open-adaptive is " + eventOnly, []string{"-model", "cycle", "-page", "open-adaptive"}},
		{"-page closed-adaptive is " + eventOnly, []string{"-model", "cycle", "-page", "closed-adaptive"}},
		// The command file has no channel column.
		{"-cmd-trace records one channel", []string{"-cmd-trace", file("cmds.txt")}},
		// A nanosecond count whose ticks overflow is refused, not wrapped
		// to some other duration (this one wrapped to 384 ps).
		{`invalid value "18446744073709552" for flag -itt: must be at most`, []string{"-itt", "18446744073709552"}},
		{`invalid value "18446744073709552" for flag -checkpoint-every: must be at most`, []string{"-checkpoint", file("c.ckpt"), "-checkpoint-every", "18446744073709552"}},
		{`invalid value "-1" for flag -powerdown: must not be negative`, []string{"-powerdown", "-1"}},
		// A request wider than every queue it could enter would be refused
		// forever, on one channel or several.
		{oversized + "read buffer (20 bursts)", []string{"-channels", "1", "-bytes", "4096", "-requests", "10"}},
		{oversized + "transaction queue (40 bursts)", []string{"-channels", "1", "-model", "cycle", "-bytes", "4096", "-requests", "10"}},
		{oversized + "read buffer (20 bursts)", []string{"-bytes", "4096"}},
		{oversized + "read buffer (20 bursts)", []string{"-channels", "1", "-trace-in", wide}},
	} {
		clitest.Refused(t, run, c.want, with(c.flags...)...)
	}

	out := mustRun(t, with("-list")...)
	if !strings.Contains(out, "DDR3-1600-x64") || strings.Contains(out, "simulated") {
		t.Errorf("-list with -channels 2 did not list the specs:\n%s", out)
	}
	for _, line := range []string{ // one decimal, no float noise
		"DDR3-1333-8x8      DDR3     64-bit, BL8, 8 banks x 1 ranks, 10.7 GB/s peak\n",
		"DDR4-2400-x64      DDR4     64-bit, BL8, 16 banks x 1 ranks, 19.2 GB/s peak\n",
		"GDDR5-4000-x32     GDDR5    32-bit, BL8, 16 banks x 1 ranks, 16.0 GB/s peak (-spec gddr5)\n",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("-list lacks %q:\n%s", line, out)
		}
	}
}

// A checkpoint is not resumed under another configuration, and the refusal
// names the component that states the knob, the field and the flag that set
// it. The same flags resume.
func TestResumeRefusesAnotherConfiguration(t *testing.T) {
	for _, tc := range []struct {
		base  []string
		flags []string
		want  string // "" = the resume is accepted
	}{
		{[]string{"-channels", "2"}, []string{"-sched", "fcfs"}, `mc0: Scheduling: checkpoint "FRFCFS", this run "FCFS" (set by -sched)`},
		{[]string{"-channels", "2"}, nil, ""},
		{[]string{"-page", "open"}, []string{"-page", "closed"}, `mc0: Page: checkpoint "open", this run "closed" (set by -page)`},
	} {
		ckpt := filepath.Join(t.TempDir(), "run.ckpt")
		base := append(tc.base, "-requests", "2000", "-checkpoint", ckpt)
		first := simulatedLine.FindString(mustRun(t, base...))
		saved := read(t, ckpt)
		out, err := dramctrl(t, append(append(base, "-resume"), tc.flags...)...)
		switch {
		case tc.want == "" && (err != nil || simulatedLine.FindString(out) != first):
			t.Errorf("resume with %v: err = %v, output %q; want the first run's %q", tc.flags, err, out, first)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), "configuration mismatch: "+tc.want)):
			t.Errorf("resume with %v: err = %v, want a configuration mismatch naming %s", tc.flags, err, tc.want)
		}
		if !bytes.Equal(read(t, ckpt), saved) {
			t.Errorf("resume with %v changed the checkpoint file", tc.flags)
		}
	}
}

// statedConfig returns the configuration component id states in the
// checkpoint file at path.
func statedConfig(t *testing.T, path, id string) map[string]any {
	t.Helper()
	_, payload, _ := bytes.Cut(read(t, path), []byte("\n"))
	var body struct {
		Configs map[string]map[string]any `json:"configs"`
	}
	if err := json.Unmarshal(payload, &body); err != nil {
		t.Fatal(err)
	}
	if body.Configs[id] == nil {
		t.Fatalf("%s: no configuration stated for %s", path, id)
	}
	return body.Configs[id]
}

// A channel is the same controller whatever -channels says: the same flags
// build mc0 from the same defaults on one channel and on two. On either model
// what mc0 states in the two checkpoints differs in its channel count and
// nothing else (queue depths and static latencies included).
func TestChannelCountChangesOnlyChannels(t *testing.T) {
	dir := t.TempDir()
	for _, model := range []string{"event", "cycle"} {
		stated := func(channels string) map[string]any {
			ckpt := filepath.Join(dir, model+channels+".ckpt")
			mustRun(t, "-model", model, "-requests", "500", "-channels", channels, "-checkpoint", ckpt)
			return statedConfig(t, ckpt, "mc0")
		}
		one, two := stated("1"), stated("2")
		if one["Channels"] != 1.0 || two["Channels"] != 2.0 {
			t.Errorf("%s: mc0 states Channels %v and %v, want 1 and 2", model, one["Channels"], two["Channels"])
		}
		delete(one, "Channels")
		delete(two, "Channels")
		if !reflect.DeepEqual(one, two) {
			t.Errorf("%s: mc0 differs beyond Channels:\n-channels 1: %v\n-channels 2: %v", model, one, two)
		}
	}
}

// Per standard, and for bursty traffic under power-down and self-refresh, a
// -check run is violation-free, its -cmd-trace recording replays through the
// checker alone (-cmd-trace-in) to the same verdict, and recording is
// deterministic.
func TestStandardsRecordReplayDeterministic(t *testing.T) {
	const clean = "protocol clean: no timing violations\n"
	random := []string{"-pattern", "random", "-reads", "67", "-requests", "20000", "-seed", "7"}
	// Bursty traffic with both idle thresholds armed: every burst is followed
	// by a multi-microsecond gap, so ranks cycle through power-down and deepen
	// into self-refresh constantly, and the oracle checks the PDE/PDX/SRE/SRX
	// transitions and their tCKE/tXP/tXS spacing.
	lowPower := []string{"-pattern", "bursty", "-reads", "67", "-requests", "20000", "-seed", "7",
		"-burst-off-ns", "5000", "-powerdown", "300", "-selfrefresh", "2000"}
	for _, row := range []struct {
		name    string
		device  []string // what the recording and the replay are checked against
		traffic []string
		want    string // a command the recording must contain ("" = none in particular)
	}{
		{"ddr3", []string{"-spec", "ddr3"}, random, ""},
		{"ddr4", []string{"-spec", "ddr4"}, random, ""},
		// Same-bank refresh is the headline quirk of DDR5's discipline.
		{"ddr5", []string{"-spec", "ddr5"}, random, "REFSB"},
		{"lpddr5", []string{"-spec", "lpddr5"}, random, ""},
		{"lowpower", []string{"-spec", "DDR3-1600-x64"}, lowPower, "SRE"},
		// Two ranks wake staggered, and every access closes its row.
		{"lowpower-2rank-closed", []string{"-spec", "DDR3-1600-x64-2R", "-page", "closed"}, lowPower, "SRE"},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			first, second := filepath.Join(dir, "a.txt"), filepath.Join(dir, "b.txt")
			record := append(row.device[:len(row.device):len(row.device)], append(row.traffic, "-check")...)

			recorded := mustRun(t, append(record, "-cmd-trace", first)...)
			if !strings.HasSuffix(recorded, clean) {
				t.Fatalf("recording run not clean:\n%s", recorded)
			}
			replayed := mustRun(t, append(row.device[:len(row.device):len(row.device)], "-cmd-trace-in", first)...)
			if !strings.HasSuffix(replayed, clean) || !strings.HasPrefix(replayed, "replaying ") {
				t.Fatalf("replay through the checker alone not clean:\n%s", replayed)
			}
			// Same stream, same device: the "checked N DRAM commands" verdicts agree.
			if a, b := lastLines(recorded, 2), lastLines(replayed, 2); a != b {
				t.Errorf("replay verdict %q, recording's %q", b, a)
			}

			mustRun(t, append(record, "-cmd-trace", second)...)
			a := read(t, first)
			if !bytes.Equal(a, read(t, second)) {
				t.Error("two recordings of the same run differ")
			}
			if !bytes.Contains(a, []byte(row.want)) {
				t.Errorf("command stream has no %s entry", row.want)
			}
		})
	}
}

// lastLines returns the final n lines of s.
func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], "\n")
}

// A violating stream is an error with the findings printed: a DDR5 recording
// checked against DDR3 timing breaks tCCD and friends.
func TestViolationsAreAnError(t *testing.T) {
	cmds := filepath.Join(t.TempDir(), "cmds.txt")
	mustRun(t, "-spec", "ddr5", "-requests", "2000", "-cmd-trace", cmds)
	out, err := dramctrl(t, "-spec", "ddr3", "-cmd-trace-in", cmds)
	if err == nil || !strings.Contains(err.Error(), "timing violations") ||
		!strings.Contains(out, " violations:\n") || !regexp.MustCompile(`(?m)^  \.\.\. and \d+ more$`).MatchString(out) {
		t.Errorf("err = %v, want a timing-violations error with the findings printed:\n%s", err, out)
	}
}

// -check referees either model at any channel count, and under -trace every
// finding shown cites its Perfetto span. A clean traced run has no finding to
// cite, so one is made on purpose: a violation at one of the run's recorded
// ACTs must be located in the run's trace.
func TestCheckCitesTraceSpans(t *testing.T) {
	dir := t.TempDir()
	trace, cmds := filepath.Join(dir, "run.json"), filepath.Join(dir, "cmds.txt")
	out := mustRun(t, "-spec", "ddr4", "-pattern", "random", "-requests", "3000", "-check", "-trace", trace, "-cmd-trace", cmds)
	if !strings.HasSuffix(out, "protocol clean: no timing violations\n") {
		t.Fatalf("the traced DDR4 run is not clean:\n%s", out)
	}
	recorded, err := readFile(cmds, power.ReadCommands)
	if err != nil {
		t.Fatal(err)
	}
	act := slices.IndexFunc(recorded, func(c power.Command) bool { return c.Kind == power.CmdACT })
	if act < 0 {
		t.Fatalf("the run recorded no ACT in %d commands", len(recorded))
	}
	cite, err := traceCiter(trace, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	v := power.Violation{Rule: "tRRD_L", Cmd: recorded[act], Deficit: sim.Nanosecond}
	if got := cite("mc", v); !regexp.MustCompile(`^trace: cmd "ACT" pid=1 tid=\d+ ts=\d+\.\d{6}us`).MatchString(got) {
		t.Errorf("%v cites %q, want the ACT's trace instant", v, got)
	}
	for _, model := range []string{"event", "cycle"} {
		out := mustRun(t, "-model", model, "-channels", "4", "-pattern", "random", "-requests", "3000", "-check")
		if n := strings.Count(out, "protocol clean: no timing violations\n"); n != 4 || !strings.Contains(out, "\nmc3: checked ") {
			t.Errorf("-model %s -channels 4 -check: %d clean channels, want 4:\n%s", model, n, out)
		}
	}
}
