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
	"repro/internal/obs"
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
// byte.
func TestMidRunResumeMatchesUninterrupted(t *testing.T) {
	for name, topo := range topologies {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "", true: "-traced"}[traced], func(t *testing.T) {
				dir := t.TempDir()
				file := func(n string) string { return filepath.Join(dir, n) }
				with := func(js, trace string, extra ...string) []string {
					args := append(topo[:len(topo):len(topo)], "-json", js)
					if traced {
						args = append(args, "-trace", trace)
					}
					return append(args, extra...)
				}
				mustRun(t, with(file("ref.json"), file("ref.trace"))...)

				ckpt := []string{"-checkpoint", file("run.ckpt"), "-checkpoint-every", "2000"}
				_, err := dramctrl(t, with(file("run.json"), file("run.trace"), append(ckpt, "-max-events", "4000")...)...)
				if err == nil || !strings.Contains(err.Error(), "watchdog") {
					t.Fatalf("victim run: err = %v, want a watchdog trip", err)
				}
				if _, err := os.Stat(file("run.json")); err == nil {
					t.Fatal("victim run wrote its statistics: it finished before the trip")
				}
				if _, err := os.Stat(file("run.ckpt")); err != nil {
					t.Fatalf("victim run left no periodic checkpoint to resume from: %v", err)
				}
				// Behind a crossbar the way back is on the packet, and the
				// checkpoint has to catch some there; with no crossbar there
				// is no route to save.
				if routed := bytes.Contains(read(t, file("run.ckpt")), []byte(`"route":[{"xbar":`)); routed != (name == "4ch") {
					t.Fatalf("checkpoint holds a packet with a return route: %v", routed)
				}
				if _, err := os.Stat(file("run.ckpt.postmortem")); err != nil {
					t.Errorf("the watchdog trip dumped no postmortem image: %v", err)
				}
				mustRun(t, with(file("run.json"), file("run.trace"), append(ckpt, "-resume")...)...)

				if !bytes.Equal(read(t, file("run.json")), read(t, file("ref.json"))) {
					t.Error("resumed statistics differ from the uninterrupted run")
				}
				if traced && !bytes.Equal(read(t, file("run.trace")), read(t, file("ref.trace"))) {
					t.Error("resumed trace differs from the uninterrupted run")
				}
			})
		}
	}
}

// A supervised run killed with SIGKILL mid-flight — no handler runs, nothing
// is flushed — and resumed from its last periodic checkpoint finishes with
// the statistics (and, when traced, the Perfetto trace) of the uninterrupted
// run, byte for byte. The low-power row's ranks spend most of the run in
// power-down or self-refresh, so the surviving checkpoint sits inside a
// low-power interval (internal/checkpoint's round-trip matrix pins the exact
// mid-PD / mid-SR instants). The SIGINT row is the graceful stop: the process
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
					if sum, err := obs.ValidateTraceStrict(file("ref.trace")); err != nil || sum.PowerSpans == 0 || sum.OpenSpans() != 0 {
						t.Errorf("reference trace fails validate's trace check: %v, %+v", err, sum)
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
			sum, err := obs.ValidateTraceStrict(a)
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

// Every supported standard's representative preset completes a run, and
// -standard ddr3 is the default preset under another name (bit-compat guard).
func TestStandardsRunAndResolve(t *testing.T) {
	traffic := []string{"-pattern", "random", "-reads", "67", "-requests", "5000", "-seed", "7"}
	for _, std := range []string{"ddr3", "ddr4", "ddr5", "lpddr5"} {
		out := mustRun(t, append(traffic, "-standard", std)...)
		if !regexp.MustCompile(`(?m)^bandwidth [1-9]\d*\.\d+ GB/s`).MatchString(out) {
			t.Errorf("-standard %s reported no bandwidth:\n%s", std, out)
		}
	}
	if byStd, byName := mustRun(t, append(traffic, "-standard", "ddr3")...), mustRun(t, append(traffic, "-spec", "DDR3-1600-x64")...); byStd != byName {
		t.Errorf("-standard ddr3 and -spec DDR3-1600-x64 differ:\n%s\n%s", byStd, byName)
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

	// Capture and replay: what -trace-out records on two channels drives the
	// same two channels to the same tick and event count through -trace-in.
	capture := file("cap.txt")
	captured := simulatedLine.FindString(mustRun(t, with("-trace-out", capture)...))
	replayed := mustRun(t, "-channels", "2", "-trace-in", capture)
	if got := simulatedLine.FindString(replayed); got != captured || !strings.Contains(replayed, "replaying 2000 trace records") {
		t.Errorf("replay printed %q, the captured run %q:\n%s", got, captured, replayed)
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
	for _, c := range []struct {
		want  string
		flags []string
	}{
		// A mistyped -spec is rejected even when -standard overrides it.
		{`unknown spec "nosuch"`, []string{"-spec", "nosuch", "-standard", "ddr4"}},
		// A channel count below one is not "one channel" (a later -channels
		// overrides the base's), and the worker and quantum knobs are gone.
		{noChannel, []string{"-channels", "0"}}, {noChannel, []string{"-channels", "-3"}},
		{undefined + ": -parallel", []string{"-parallel", "2"}},
		{undefined + ": -lookahead-quanta", []string{"-lookahead-quanta", "8"}},
		{undefined + ": -interval", []string{"-interval", "1000"}},
		// Nothing is retried in process and checkpoints follow simulated time.
		{undefined + ": -max-retries", []string{"-max-retries", "1"}},
		{undefined + ": -checkpoint-wall", []string{"-checkpoint-wall", "1s"}},
		// What the cycle model cannot honour is refused, never ignored.
		{"fault injection is " + eventOnly, []string{"-model", "cycle", "-ber-correctable", "0.01"}},
		{"-powerdown/-selfrefresh are " + eventOnly, []string{"-model", "cycle", "-powerdown", "300"}},
		{"-powerdown/-selfrefresh are " + eventOnly, []string{"-model", "cycle", "-selfrefresh", "2000"}},
		{"-page open-adaptive is " + eventOnly, []string{"-model", "cycle", "-page", "open-adaptive"}},
		{"-page closed-adaptive is " + eventOnly, []string{"-model", "cycle", "-page", "closed-adaptive"}},
		// A resumed run's recorder would miss the prefix, and the command
		// file has no channel column.
		{"checkpointing does not support -check", []string{"-check", "-checkpoint", file("c.ckpt")}},
		{"checkpointing does not support -check", []string{"-check", "-checkpoint", file("c.ckpt"), "-resume"}},
		{"-cmd-trace records one channel", []string{"-cmd-trace", file("cmds.txt")}},
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
		"GDDR5-4000-x32     GDDR5    32-bit, BL8, 16 banks x 1 ranks, 16.0 GB/s peak\n",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("-list lacks %q:\n%s", line, out)
		}
	}
}

// A checkpoint is not resumed under another configuration, and the refusal
// names the component that states the knob and the field — nothing in this
// command lists its flags for the purpose. The same flags resume.
func TestResumeRefusesAnotherConfiguration(t *testing.T) {
	for _, tc := range []struct {
		base  []string
		flags []string
		want  string // "" = the resume is accepted
	}{
		{[]string{"-channels", "2"}, []string{"-sched", "fcfs"}, `mc0: Scheduling: checkpoint "FRFCFS", this run "FCFS"`},
		{[]string{"-channels", "2"}, nil, ""},
		{[]string{"-page", "open"}, []string{"-page", "closed"}, `mc0: Page: checkpoint "open", this run "closed"`},
		{[]string{"-model", "cycle"}, []string{"-sched", "fcfs"}, `mc0: Scheduling: checkpoint "FRFCFS", this run "FCFS"`},
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
// build mc0 from the same defaults on one channel and on two, so what it
// states in the two checkpoints differs in its channel count and nothing else
// (queue depths and static latencies included).
func TestChannelCountChangesOnlyChannels(t *testing.T) {
	for _, model := range []string{"event", "cycle"} {
		dir := t.TempDir()
		stated := func(channels string) map[string]any {
			ckpt := filepath.Join(dir, channels+".ckpt")
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
		{"ddr3", []string{"-standard", "ddr3"}, random, ""},
		{"ddr4", []string{"-standard", "ddr4"}, random, ""},
		// Same-bank refresh is the headline quirk of DDR5's discipline.
		{"ddr5", []string{"-standard", "ddr5"}, random, "REFSB"},
		{"lpddr5", []string{"-standard", "lpddr5"}, random, ""},
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
	mustRun(t, "-standard", "ddr5", "-requests", "2000", "-cmd-trace", cmds)
	out, err := dramctrl(t, "-standard", "ddr3", "-cmd-trace-in", cmds)
	if err == nil || !strings.Contains(err.Error(), "timing violations") ||
		!strings.Contains(out, " violations:\n") || !regexp.MustCompile(`(?m)^  \.\.\. and \d+ more$`).MatchString(out) {
		t.Errorf("err = %v, want a timing-violations error with the findings printed:\n%s", err, out)
	}
}

// -check referees either model at any channel count. The cycle baseline has
// no bank groups (internal/cyclesim), so on DDR4 it breaks tRRD_L/tCCD_L, and
// under -trace every finding shown cites its Perfetto span.
func TestCheckCitesTraceSpans(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "run.json")
	out, err := dramctrl(t, "-model", "cycle", "-standard", "ddr4", "-pattern", "random", "-requests", "3000", "-check", "-trace", trace)
	if err == nil || !strings.Contains(err.Error(), "timing violations") {
		t.Fatalf("err = %v, want the cycle model's bank-group violations:\n%s", err, out)
	}
	if !regexp.MustCompile(`(?m)^  tRRD_L violated by ACT .*\n    trace: cmd "ACT" pid=1 tid=\d+ ts=\d+\.\d{6}us$`).MatchString(out) {
		t.Errorf("no trace citation under a tRRD_L finding:\n%s", out)
	}
	for _, model := range []string{"event", "cycle"} {
		out := mustRun(t, "-model", model, "-channels", "4", "-pattern", "random", "-requests", "3000", "-check")
		if n := strings.Count(out, "protocol clean: no timing violations\n"); n != 4 || !strings.Contains(out, "\nmc3: checked ") {
			t.Errorf("-model %s -channels 4 -check: %d clean channels, want 4:\n%s", model, n, out)
		}
	}
}
