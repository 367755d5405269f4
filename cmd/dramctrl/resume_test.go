package main

// Resume by replay: a run stopped at a chosen tick and resumed from its
// checkpoint must end byte-identical to the uninterrupted run — stdout, the
// statistics, the Perfetto trace, every recording and capture, and the final
// checkpoint itself. The ticks come from a fixed list; each case also checks
// that its tick is the adversarial instant it is named for, so the list
// cannot quietly go stale.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/supervisor"
	"repro/internal/system"
)

// killAt is the session a victim run steps: once it reaches at, it checks
// what the case is about and raises SIGINT, so the supervisor writes its
// checkpoint at exactly that tick — the recipe a process killed there leaves.
type killAt struct {
	*system.Session
	at    sim.Tick
	sig   chan os.Signal
	holds func() string
	why   string
}

func (k *killAt) Step() (bool, error) {
	done, err := k.Session.Step()
	if k.Now() == k.at {
		k.why = k.holds()
		k.sig <- syscall.SIGINT
	}
	return done, err
}

// resumeCase is one kill-at-T-and-resume run: its flags, with file names
// under DIR/, and the tick it is stopped at, with what must hold there.
type resumeCase struct {
	name  string
	args  []string
	at    sim.Tick
	holds func(r *rig) string // "" when the instant is what the case needs
}

// the instants the cases are named for.
func anytime(*rig) string { return "" }

func inRefresh(r *rig) string {
	now := r.sess.Now()
	for _, c := range r.cmds[r.memory.Ctrls[0].Name()] {
		if c.Kind == power.CmdREF && c.At <= now && now < c.At+r.memory.Ctrls[0].(*core.Controller).Config().Device.Timing.TRFC {
			return ""
		}
	}
	return "no rank is refreshing"
}

func inLowPower(selfRefresh bool) func(r *rig) string {
	return func(r *rig) string {
		c := r.memory.Ctrls[0].(*core.Controller)
		for ri := range c.Config().Device.Org.RanksPerChannel {
			if pd, sr := c.RankLowPower(ri); (pd && !selfRefresh) || (sr && selfRefresh) {
				return ""
			}
		}
		return fmt.Sprintf("no rank is in low power (self-refresh %v)", selfRefresh)
	}
}

func inReplayBackoff(r *rig) string {
	for _, e := range r.memory.K.PendingEvents() {
		if strings.HasSuffix(e.Name, ".replay") {
			return ""
		}
	}
	return "no read burst is parked in a fault-replay backoff"
}

func behindCrossbar(r *rig) string {
	if r.memory.Xbar.InFlight() == 0 {
		return "no request is behind the crossbar"
	}
	return ""
}

// withDir replaces the DIR/ prefix of every argument with dir.
func withDir(args []string, dir string) []string {
	out := make([]string, len(args))
	for i, a := range args {
		out[i] = strings.Replace(a, "DIR/", dir+string(filepath.Separator), 1)
	}
	return out
}

// files reads every file in dir.
func files(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		out[e.Name()] = read(t, filepath.Join(dir, e.Name()))
	}
	return out
}

// victim runs the flags as dramctrl does until the tick at, where the
// supervisor checkpoints under SIGINT, and returns what holds there; it
// never reports (a killed process does not).
func victim(t *testing.T, args []string, at sim.Tick, holds func(*rig) string) string {
	t.Helper()
	f, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := dram.ByName(*f.spec)
	if err != nil {
		t.Fatal(err)
	}
	mapping, err := f.pol.ParseMapping()
	if err != nil {
		t.Fatal(err)
	}
	r, err := build(f, spec, mapping, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	cfg, err := f.supervision(r, sig)
	if err != nil {
		t.Fatal(err)
	}
	k := &killAt{Session: r.sess, at: at, sig: sig, holds: func() string { return holds(r) }}
	res, err := supervisor.Run(cfg, k)
	if err != nil || !res.Interrupted || res.Now != at {
		t.Fatalf("victim: %+v, %v; want an interrupt at %s", res, err, at)
	}
	if r.tracer != nil {
		r.tracer.Flush() //nolint:errcheck // the process is about to die; its trace ends mid-array
	}
	return k.why
}

// killAndResume runs c uninterrupted, then stopped at c.at and resumed, and
// requires the two to print and write the same bytes.
func killAndResume(t *testing.T, c resumeCase) {
	t.Helper()
	dir := t.TempDir()
	args := withDir(append(c.args[:len(c.args):len(c.args)],
		"-checkpoint", "DIR/run.ckpt", "-json", "DIR/stats.json", "-trace", "DIR/run.trace"), dir)
	want := mustRun(t, args...)
	wantFiles := files(t, dir)
	for name := range wantFiles {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}

	if why := victim(t, args, c.at, c.holds); why != "" {
		t.Fatalf("at %s %s: pick another tick for %s", c.at, why, c.name)
	}
	if r, err := supervisor.Decode(read(t, filepath.Join(dir, "run.ckpt"))); err != nil || r.Tick != c.at {
		t.Fatalf("the victim's checkpoint: %+v, %v; want one at %s", r, err, c.at)
	}
	if got := mustRun(t, append(args, "-resume")...); got != want {
		t.Errorf("resumed stdout differs from the uninterrupted run's:\n%s\nwant:\n%s", got, want)
	}
	got := files(t, dir)
	for _, name := range sortedKeys(wantFiles) {
		if !bytes.Equal(got[name], wantFiles[name]) {
			t.Errorf("%s of the resumed run differs from the uninterrupted run's", name)
		}
	}
	if len(got) != len(wantFiles) {
		t.Errorf("the resumed run wrote %d files, the uninterrupted run %d", len(got), len(wantFiles))
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// traffic is random mixed traffic on the single rig's matched device.
var traffic = []string{"-spec", "DDR3-1333-8x8", "-pattern", "random", "-reads", "67", "-seed", "3", "-outstanding", "16", "-requests", "4000"}

// TestTrafficRigResumeBitIdentical stops every page policy a third of the
// way through, a recorded run inside a refresh, the cycle model and a sampled
// run, and resumes each. The last two print the statistics dump and the
// bandwidth-over-time table, so stdout holds them.
func TestTrafficRigResumeBitIdentical(t *testing.T) {
	for _, c := range []resumeCase{
		{"event-open", append(slices.Clone(traffic), "-page", "open"), 15 * sim.Microsecond, anytime},
		{"event-open-adaptive", append(slices.Clone(traffic), "-page", "open-adaptive"), 15 * sim.Microsecond, anytime},
		{"event-closed", append(slices.Clone(traffic), "-page", "closed"), 15 * sim.Microsecond, anytime},
		{"event-closed-adaptive", append(slices.Clone(traffic), "-page", "closed-adaptive"), 15 * sim.Microsecond, anytime},
		// -check and -cmd-trace record every DRAM command from tick 0 again.
		{"mid-refresh", []string{"-pattern", "random", "-reads", "67", "-seed", "3", "-requests", "4000",
			"-check", "-cmd-trace", "DIR/cmds.txt"}, 8 * sim.Microsecond, inRefresh},
		{"cycle-sampled", append(slices.Clone(traffic), "-model", "cycle", "-obs-sample", "2000", "-stats"), 15 * sim.Microsecond, anytime},
		{"event-sampled", append(slices.Clone(traffic), "-obs-sample", "2000", "-stats"), 15 * sim.Microsecond, anytime},
	} {
		t.Run(c.name, func(t *testing.T) { killAndResume(t, c) })
	}
}

// TestMultiChannelResumeBitIdentical stops channels behind a crossbar with
// requests in flight through it: two event-model channels capturing the
// request stream, and four cycle-model channels under -check.
func TestMultiChannelResumeBitIdentical(t *testing.T) {
	random := []string{"-pattern", "random", "-reads", "67", "-seed", "3", "-requests", "2000"}
	for _, c := range []resumeCase{
		{"event-2ch", append(slices.Clone(random), "-channels", "2", "-trace-out", "DIR/capture.txt"), 7 * sim.Microsecond, behindCrossbar},
		{"cycle-4ch", append(slices.Clone(random), "-channels", "4", "-model", "cycle", "-check", "-stats"), 7 * sim.Microsecond, behindCrossbar},
	} {
		t.Run(c.name, func(t *testing.T) { killAndResume(t, c) })
	}
}

// TestResumeMidLowPower stops bursty traffic on two ranks while one is
// powered down and while one is in self-refresh.
func TestResumeMidLowPower(t *testing.T) {
	lowPower := []string{"-spec", "DDR3-1600-x64-2R", "-pattern", "bursty", "-reads", "67", "-seed", "5",
		"-burst-off-ns", "5000", "-powerdown", "300", "-selfrefresh", "2000", "-requests", "3000"}
	for _, c := range []resumeCase{
		{"mid-powerdown", lowPower, 18 * sim.Microsecond, inLowPower(false)},
		{"mid-selfrefresh", lowPower, 19 * sim.Microsecond, inLowPower(true)},
	} {
		t.Run(c.name, func(t *testing.T) { killAndResume(t, c) })
	}
}

// TestResumeWithFaultsMidReplay stops a fault-injected run while a read
// burst waits out a replay backoff.
func TestResumeWithFaultsMidReplay(t *testing.T) {
	killAndResume(t, resumeCase{"faults", append(slices.Clone(traffic), "-requests", "3000",
		"-ber-correctable", "0.05", "-ber-uncorrectable", "0.01", "-ber-transient", "0.3",
		"-retry-limit", "2", "-fault-seed", "11"), 20 * sim.Microsecond, inReplayBackoff})
}

// A -trace-in replay resumes too: the checkpoint holds the input's hash.
func TestTraceInResumeBitIdentical(t *testing.T) {
	capture := filepath.Join(t.TempDir(), "capture.txt")
	mustRun(t, "-pattern", "random", "-requests", "2000", "-trace-out", capture)
	killAndResume(t, resumeCase{"trace-in", []string{"-trace-in", capture}, 6 * sim.Microsecond, anytime})
}

// TestCompletedRunResumesAsDone: resuming a finished run replays it
// whole and changes nothing — stdout, files and the checkpoint — on every
// page policy and behind a crossbar.
func TestCompletedRunResumesAsDone(t *testing.T) {
	cases := map[string][]string{"multichannel": {"-channels", "2", "-pattern", "random", "-requests", "1000"}}
	for _, page := range []string{"open", "open-adaptive", "closed", "closed-adaptive"} {
		cases["traffic-event-"+page] = append(slices.Clone(traffic), "-requests", "1000", "-page", page)
	}
	for name, flags := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			args := withDir(append(slices.Clone(flags), "-checkpoint", "DIR/run.ckpt", "-json", "DIR/stats.json", "-trace", "DIR/run.trace"), dir)
			want := mustRun(t, args...)
			wantFiles := files(t, dir)
			if got := mustRun(t, append(args, "-resume")...); got != want {
				t.Errorf("resumed stdout %q, first run %q", got, want)
			}
			for name, b := range files(t, dir) {
				if !bytes.Equal(b, wantFiles[name]) {
					t.Errorf("%s changed across the resume", name)
				}
			}
		})
	}
}

// A checkpoint taken under one DRAM standard is refused under another,
// naming the controller, the device field and the flag, before anything
// runs; under the same device, however -spec names it, it resumes.
func TestCrossStandardResumeRejected(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	args := []string{"-spec", "ddr5", "-pattern", "random", "-requests", "2000", "-checkpoint", ckpt}
	victim(t, args, 5*sim.Microsecond, anytime)
	saved := read(t, ckpt)
	_, err := dramctrl(t, "-spec", "ddr4", "-pattern", "random", "-requests", "2000", "-checkpoint", ckpt, "-resume")
	for _, want := range []string{"configuration mismatch: mc0: Device.Family", `"DDR5"`, `"DDR4"`, "(set by -spec)"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("resuming DDR5 as DDR4: err = %v, want it to name %q", err, want)
		}
	}
	if !bytes.Equal(read(t, ckpt), saved) {
		t.Error("the refused resume changed the checkpoint")
	}
	mustRun(t, "-spec", "DDR5-4800-x64", "-pattern", "random", "-requests", "2000", "-checkpoint", ckpt, "-resume")
}

func TestSameStandardResumeAccepted(t *testing.T) {
	killAndResume(t, resumeCase{"ddr5", []string{"-spec", "ddr5", "-pattern", "random", "-requests", "2000"}, 5 * sim.Microsecond, anytime})
}

// TestEveryStatedFieldRefusesResume changes each flag that shapes a run, one
// at a time, and requires the resume to be refused naming that flag. It
// walks the flags dramctrl records in a checkpoint, so a flag added tomorrow
// fails here until it has a row.
func TestEveryStatedFieldRefusesResume(t *testing.T) {
	dir := t.TempDir()
	traceA, traceB := filepath.Join(dir, "a.txt"), filepath.Join(dir, "b.txt")
	mustRun(t, "-pattern", "random", "-requests", "300", "-trace-out", traceA)
	mustRun(t, "-pattern", "random", "-requests", "300", "-seed", "2", "-trace-out", traceB)
	// Each row: the run's own flags (beyond -pattern random -requests 300)
	// so the changed flag matters, and the changed flag and value.
	rows := map[string]struct{ base, changed []string }{
		"spec":              {nil, []string{"-spec", "DDR4-2400-x64"}},
		"model":             {nil, []string{"-model", "cycle"}},
		"mapping":           {nil, []string{"-mapping", "RoCoRaBaCh"}},
		"page":              {nil, []string{"-page", "closed"}},
		"sched":             {nil, []string{"-sched", "fcfs"}},
		"pattern":           {nil, []string{"-pattern", "linear"}},
		"reads":             {nil, []string{"-reads", "50"}},
		"requests":          {nil, []string{"-requests", "400"}},
		"bytes":             {nil, []string{"-bytes", "128"}},
		"outstanding":       {nil, []string{"-outstanding", "8"}},
		"itt":               {nil, []string{"-itt", "10"}},
		"seed":              {nil, []string{"-seed", "4"}},
		"channels":          {nil, []string{"-channels", "2"}},
		"stride":            {[]string{"-pattern", "dramaware"}, []string{"-stride", "8"}},
		"banks":             {[]string{"-pattern", "dramaware"}, []string{"-banks", "2"}},
		"burst-on":          {[]string{"-pattern", "bursty"}, []string{"-burst-on", "8"}},
		"burst-off-ns":      {[]string{"-pattern", "bursty"}, []string{"-burst-off-ns", "1000"}},
		"powerdown":         {nil, []string{"-powerdown", "300"}},
		"selfrefresh":       {nil, []string{"-selfrefresh", "2000"}},
		"fault-seed":        {nil, []string{"-fault-seed", "43"}},
		"ber-correctable":   {nil, []string{"-ber-correctable", "0.01"}},
		"ber-uncorrectable": {nil, []string{"-ber-uncorrectable", "0.01"}},
		"ber-transient":     {nil, []string{"-ber-transient", "0.01"}},
		"ecc-latency":       {nil, []string{"-ecc-latency", "20"}},
		"retry-limit":       {nil, []string{"-retry-limit", "2"}},
		"trace-in":          {[]string{"-trace-in", traceA}, []string{"-trace-in", traceB}},
		"obs-sample":        {nil, []string{"-obs-sample", "2000"}},
	}
	f, err := parseFlags([]string{"-requests", "1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sortedKeys(f.shaping) {
		row, ok := rows[name]
		if !ok {
			t.Errorf("-%s shapes a run but has no row: teach this table a value that changes the run", name)
			continue
		}
		ckpt := filepath.Join(dir, name+".ckpt")
		base := append([]string{"-pattern", "random", "-requests", "300", "-checkpoint", ckpt}, row.base...)
		mustRun(t, base...)
		saved := read(t, ckpt)
		_, err := dramctrl(t, append(append(base, "-resume"), row.changed...)...)
		if err == nil || !strings.Contains(err.Error(), "-"+name) {
			t.Errorf("resume with %v: err = %v, want a refusal naming -%s", row.changed, err, name)
		}
		if !bytes.Equal(read(t, ckpt), saved) {
			t.Errorf("resume with %v changed the checkpoint", row.changed)
		}
	}
	if len(rows) != len(f.shaping) {
		t.Errorf("%d rows for %d shaping flags: a row names a flag that no longer shapes the run", len(rows), len(f.shaping))
	}
	// -obs-http is an address outside the recipe, but the 1 ms sampling it
	// implies is not: adding it to a run that did not sample is refused too.
	ckpt := filepath.Join(dir, "obs-sample.ckpt")
	_, err = dramctrl(t, "-pattern", "random", "-requests", "300", "-checkpoint", ckpt, "-resume", "-obs-http", "localhost:0")
	if err == nil || !strings.Contains(err.Error(), `flag -obs-sample differs: checkpoint "", this run "1000000"`) {
		t.Errorf("resume with -obs-http: err = %v, want a refusal naming -obs-sample", err)
	}
}

// Every flag a resume may change is one dramctrl has: a misspelt name in
// notShaping would let the real flag change a resumed run unnoticed.
func TestNotShapingNamesRealFlags(t *testing.T) {
	fs, _ := newFlags()
	for _, name := range sortedKeys(notShaping) {
		if fs.Lookup(name) == nil {
			t.Errorf("notShaping names -%s, which dramctrl does not define", name)
		}
	}
}

// A checkpoint written by a build that saved state images (format v6, here
// one written by such a build) is refused by its format, before anything
// runs, and left as it was.
func TestOldImageIsRefused(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "old.ckpt")
	old := read(t, filepath.Join("testdata", "v6.ckpt"))
	if err := os.WriteFile(ckpt, old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := dramctrl(t, "-requests", "200", "-checkpoint", ckpt, "-resume")
	if err == nil || !strings.Contains(err.Error(), "format v6 is a state image; this build reads v7 recipes") {
		t.Errorf("resume from a v6 image: err = %v", err)
	}
	if !bytes.Equal(read(t, ckpt), old) {
		t.Error("the refused resume changed the old checkpoint")
	}
}
