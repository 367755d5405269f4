// Trace determinism tests: the headline guarantees of the observability
// layer are that a trace is byte-identical across identical runs, reconciles
// with the aggregate statistics, and comes out whole when a resumed run
// replays over what a killed one left.
package obs_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trafficgen"
)

// runCoreTraced drives a short random-traffic run through the event-based
// controller with a lifecycle tracer attached and returns the trace bytes
// plus the controller's aggregate activity.
func runCoreTraced(t testing.TB, path string, count uint64) power.Activity {
	t.Helper()
	sink, err := obs.OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	hub := obs.NewHub()
	hub.Attach(sink)

	k := sim.NewKernel()
	reg := stats.NewRegistry("obstest")
	spec := dram.DDR3_1600_x64()
	cfg := core.DefaultConfig(spec)
	cfg.Probes = hub
	ctrl, err := core.NewController(k, cfg, reg, "mc")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trafficgen.New(k, trafficgen.Config{
		RequestBytes:   64,
		MaxOutstanding: 16,
		Count:          count,
	}, &trafficgen.Random{
		Start: 0, End: 1 << 26, Align: 64, ReadPercent: 60, Seed: 7,
	}, reg, "gen")
	if err != nil {
		t.Fatal(err)
	}
	mem.Connect(gen.Port(), ctrl.Port())
	gen.Start()
	for k.Now() < 10*sim.Second {
		if _, err := k.RunUntilErr(k.Now() + 10*sim.Microsecond); err != nil {
			t.Fatal(err)
		}
		// Flush mid-run at every poll: flush timing must not affect bytes.
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		if gen.Done() {
			if !ctrl.Quiescent() {
				ctrl.Drain()
				continue
			}
			break
		}
	}
	if !gen.Done() {
		t.Fatal("traced run did not complete")
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return ctrl.PowerStats()
}

func readFile(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Two identical runs must produce byte-identical trace files, and the file
// must parse as strict Chrome trace JSON with balanced lifecycle spans.
func TestTraceDeterministicAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	runCoreTraced(t, a, 500)
	runCoreTraced(t, b, 500)
	ab, bb := readFile(t, a), readFile(t, b)
	if !bytes.Equal(ab, bb) {
		t.Fatalf("identical runs produced different traces (%d vs %d bytes)", len(ab), len(bb))
	}
	sum, _, err := obs.ValidateTraceStrict(a)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events == 0 || !sum.Terminated {
		t.Fatalf("trace not well formed: %+v", sum)
	}
	if sum.OpenSpans() != 0 {
		t.Fatalf("%d lifecycle spans left open (begins %d, ends %d)",
			sum.OpenSpans(), sum.SpanBegins, sum.SpanEnds)
	}
}

// The trace must tell the same story as the controller's own counters:
// every burst, activate and refresh the controller accounts for appears in
// the trace exactly once.
func TestTraceReconcilesWithStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.json")
	act := runCoreTraced(t, path, 800)
	sum, _, err := obs.ValidateTraceStrict(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := uint64(sum.Bursts), act.ReadBursts+act.WriteBursts; got != want {
		t.Errorf("trace has %d bursts, controller counted %d", got, want)
	}
	if got, want := uint64(sum.Activates), act.Activations; got != want {
		t.Errorf("trace has %d ACTs, controller counted %d", got, want)
	}
	if got, want := uint64(sum.Refreshes), act.Refreshes; got != want {
		t.Errorf("trace has %d REFs, controller counted %d", got, want)
	}
}

// syntheticPhases returns two event batches: phase 1 leaves packet spans
// open across the kill (the hard case: the resumed tracer must close them
// with the original span ids), phase 2 closes everything.
func syntheticPhases(pkts []*mem.Packet) (phase1, phase2 []obs.Event) {
	us := func(n int64) sim.Tick { return sim.Tick(n) * sim.Microsecond }
	phase1 = []obs.Event{
		obs.QueueAdmit{Src: "mc", At: us(1), Queue: obs.QueueRead, Depth: 0},
		obs.PacketEnqueued{Src: "mc", At: us(1), Pkt: pkts[0], Queue: obs.QueueRead, Bursts: 1},
		obs.QueueAdmit{Src: "mc", At: us(2), Queue: obs.QueueWrite, Depth: 1},
		obs.PacketEnqueued{Src: "mc", At: us(2), Pkt: pkts[1], Queue: obs.QueueWrite, Bursts: 2},
		obs.DRAMCommand{Src: "mc", Cmd: power.Command{Kind: power.CmdACT, At: us(3), Rank: 0, Bank: 1}},
		obs.BurstScheduled{Src: "mc", At: us(4), Pkt: pkts[0], Read: true, Rank: 0, Bank: 1, Row: 7, DataEnd: us(5)},
		obs.WriteDrainEnter{Src: "mc", At: us(6), QueueLen: 3},
	}
	phase2 = []obs.Event{
		obs.ResponseSent{Src: "mc", At: us(7), Pkt: pkts[0]},
		obs.WriteDrainExit{Src: "mc", At: us(8), Writes: 3},
		obs.BurstScheduled{Src: "mc", At: us(9), Pkt: pkts[1], Read: false, Rank: 0, Bank: 2, Row: 9, DataEnd: us(10)},
		obs.RefreshStart{Src: "mc", At: us(11), Rank: 0, Bank: -1, Until: us(12)},
		obs.ResponseSent{Src: "mc", At: us(13), Pkt: pkts[1]},
		obs.QueueRefuse{Src: "xbar", At: us(14), Queue: obs.QueueRead, Depth: 16},
	}
	return phase1, phase2
}

// A run killed mid-trace leaves an unterminated file longer than its
// checkpoint's prefix. The resumed run replays from tick 0 over the same file
// and must reproduce the uninterrupted trace byte for byte — span ids
// allocated before the checkpoint included — without a byte of the leftover.
func TestTraceSinkCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pkts := []*mem.Packet{{}, {}}
	phase1, phase2 := syntheticPhases(pkts)
	run := func(path string, evs []obs.Event, kill bool) {
		t.Helper()
		sink, err := obs.OpenTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			sink.HandleEvent(ev)
		}
		if kill {
			// No Close: the process died, the file ends mid-array.
			err = sink.Flush()
		} else {
			err = sink.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	all := append(append([]obs.Event(nil), phase1...), phase2...)
	refPath := filepath.Join(dir, "ref.json")
	run(refPath, all, false)
	want := readFile(t, refPath)

	path := filepath.Join(dir, "run.json")
	run(path, append(append([]obs.Event(nil), all...), phase1...), true) // killed after more than the checkpoint's prefix
	if len(readFile(t, path)) <= len(want) {
		t.Fatal("the killed run left no more than the whole trace: the test lost its aim")
	}
	run(path, all, false)
	if got := readFile(t, path); !bytes.Equal(got, want) {
		t.Fatalf("resumed trace differs from uninterrupted reference:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// The hub must normalize "nothing attached" to nil so components pay one
// pointer comparison, and the CommandFunc shim must see exactly the DRAM
// command stream.
func TestHubOrNilAndCommandFunc(t *testing.T) {
	var empty *obs.Hub
	if empty.OrNil() != nil {
		t.Error("nil hub did not normalize to nil")
	}
	if obs.NewHub().OrNil() != nil {
		t.Error("empty hub did not normalize to nil")
	}
	var got []power.Command
	h := obs.NewHub()
	h.Attach(obs.CommandFunc(func(c power.Command) { got = append(got, c) }))
	if h.OrNil() == nil {
		t.Fatal("hub with a probe normalized to nil")
	}
	h.Emit(obs.DRAMCommand{Src: "mc", Cmd: power.Command{Kind: power.CmdACT, At: 5}})
	h.Emit(obs.QueueAdmit{Src: "mc", At: 6})
	h.Emit(obs.DRAMCommand{Src: "mc", Cmd: power.Command{Kind: power.CmdPRE, At: 7}})
	if len(got) != 2 || got[0].Kind != power.CmdACT || got[1].Kind != power.CmdPRE {
		t.Fatalf("CommandFunc saw %v", got)
	}
}

// FuzzParseTrace feeds arbitrary bytes to the trace reader behind validate
// -trace-check and dramctrl -check's span citations: it returns an error or a
// summary, never panics, and a summary counts every event it returns.
//
//	go test ./internal/obs -run '^$' -fuzz FuzzParseTrace -fuzztime 10s -fuzzminimizetime 100x
func FuzzParseTrace(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.json")
	runCoreTraced(f, path, 40)
	raw := readFile(f, path)
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte("[\n{}]\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sum, events, err := obs.ParseTrace(data)
		if err != nil {
			return
		}
		if sum.Events != len(events) {
			t.Fatalf("summary counts %d events, parser returned %d", sum.Events, len(events))
		}
	})
}
