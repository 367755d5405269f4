package system_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// ledgerRequests is the size of every ledger shape: the benchmark's -quick
// segment, in generator requests or, in the full system, memory operations
// summed over the cores.
const ledgerRequests = 1000

// ledgerShape is one workload of the benchmark's ledger (BENCHMARK.json),
// built as the benchmark builds it at -quick size with its development seed
// 1. point is set for the one-generator shapes, which run as an
// experiments.Point and so take probes; run builds the others.
type ledgerShape struct {
	name  string
	point func(kind system.Kind) (experiments.Point, error)
	run   func(kind system.Kind) (ledgerRun, error)
}

// ledgerRun is a finished ledger shape: its statistics and every kernel it
// stepped.
type ledgerRun struct {
	reg     *stats.Registry
	kernels []*sim.Kernel
}

var ledgerShapes = []ledgerShape{
	{name: "stream_reads_sat", point: func(kind system.Kind) (experiments.Point, error) {
		p, err := experiments.SweepPoint(3, kind, 8, 4)
		p.Gen.Count = ledgerRequests
		return p, err
	}},
	{name: "mix_random_wrdrain", point: func(kind system.Kind) (experiments.Point, error) {
		p := experiments.RandomMixPoint(kind, 50, 0, 1)
		p.Gen.Count = ledgerRequests
		return p, nil
	}},
	{name: "sparse_reads_lowload", point: func(kind system.Kind) (experiments.Point, error) {
		p := experiments.LowLoadPoint(kind)
		p.Gen.Count = ledgerRequests
		return p, nil
	}},
	{name: "fullsys_canneal_4c", run: func(kind system.Kind) (ledgerRun, error) {
		// The benchmark seeds core i with 4+i: its seed 1 times four cores,
		// plus i.
		p := experiments.Fig8Point(kind, "canneal", ledgerRequests/4, 4)
		fs, _, err := experiments.Runner{}.RunFull(p)
		if err != nil {
			return ledgerRun{}, err
		}
		return ledgerRun{fs.Reg, []*sim.Kernel{fs.K}}, nil
	}},
	{name: "multichan_4ch", run: func(kind system.Kind) (ledgerRun, error) {
		// The multichan recipe with each channel on its own kernel behind a
		// shard link.
		mc := multichanConfig(kind)
		rig, err := system.NewShardedRig(system.ShardedConfig{
			Kind: mc.Kind, Spec: mc.Spec, Mapping: mc.Mapping, Channels: mc.Channels,
			Xbar: mc.Xbar, Gens: mc.Gens, Patterns: mc.Patterns,
		})
		if err != nil {
			return ledgerRun{}, err
		}
		if !rig.Run(1000 * sim.Second) {
			return ledgerRun{}, errors.New("did not complete")
		}
		return ledgerRun{rig.Reg, append([]*sim.Kernel{rig.Front}, rig.Chans...)}, nil
	}},
}

// multichanConfig is the ledger's multichan recipe: four linear 80 %-read
// generators seeded 4..7 behind a crossbar over four channels.
func multichanConfig(kind system.Kind) system.MultiChannelConfig {
	const channels = 4
	spec := dram.DDR3_1333_8x8()
	burst := spec.Org.BurstBytes()
	cfg := system.MultiChannelConfig{
		Kind: kind, Spec: spec, Mapping: dram.RoRaBaCoCh, Channels: channels,
		Xbar: xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 64},
	}
	for i := range channels {
		cfg.Gens = append(cfg.Gens, trafficgen.Config{RequestBytes: burst, MaxOutstanding: 32,
			Count: ledgerRequests / channels, RequestorID: i})
		cfg.Patterns = append(cfg.Patterns, &trafficgen.Linear{Start: 0, End: 64 << 20, Step: burst,
			ReadPercent: 80, Seed: int64(channels + i)})
	}
	return cfg
}

// runLedger runs one shape on one model, feeding probes (nil for none) to
// the controllers of a point shape.
func runLedger(t *testing.T, s ledgerShape, kind system.Kind, probes *obs.Hub) ledgerRun {
	t.Helper()
	if s.point == nil {
		run, err := s.run(kind)
		if err != nil {
			t.Fatalf("%s (%s): %v", s.name, kind, err)
		}
		return run
	}
	p, err := s.point(kind)
	if err != nil {
		t.Fatal(err)
	}
	p.Probes = probes
	rig, err := experiments.Runner{}.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	return ledgerRun{rig.Reg, []*sim.Kernel{rig.K}}
}

func dumpStats(t *testing.T, reg *stats.Registry) []byte {
	t.Helper()
	var dump bytes.Buffer
	if err := reg.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	return dump.Bytes()
}

func ledgerGolden(name string, kind system.Kind) string {
	return filepath.Join("testdata", "ledger_"+name+"_"+kind.String()+".stats")
}

var bothKinds = []system.Kind{system.EventBased, system.CycleBased}

// TestLedgerStats is the "same bytes" contract: every statistic of the
// ledger's five workloads, on both controller models, equals its golden
// (testdata/ledger_<workload>_<model>.stats). A change that only restructures
// or speeds up code leaves them alone; one that means to move simulated
// behaviour rewrites them with -update in the same diff.
func TestLedgerStats(t *testing.T) {
	for _, s := range ledgerShapes {
		for _, kind := range bothKinds {
			t.Run(s.name+"/"+kind.String(), func(t *testing.T) {
				run := runLedger(t, s, kind, nil)
				system.MatchGolden(t, dumpStats(t, run.reg), ledgerGolden(s.name, kind))
			})
		}
	}
}

// TestLedgerProbesOnlyObserve reruns the point shapes with a Perfetto tracer
// and a DRAM command recorder on one hub: the statistics must equal the
// untraced golden, two traced runs must write the same trace, and the
// command stream must keep every timing rule of the device.
func TestLedgerProbesOnlyObserve(t *testing.T) {
	if flag.Lookup("update").Value.String() == "true" {
		t.Skip("-update rewrites the goldens from untraced runs; traced runs are held to them without it")
	}
	for _, s := range ledgerShapes {
		if s.point == nil {
			continue
		}
		for _, kind := range bothKinds {
			t.Run(s.name+"/"+kind.String(), func(t *testing.T) {
				var traces [2][]byte
				for i := range traces {
					path := filepath.Join(t.TempDir(), "trace.json")
					tracer, err := obs.OpenTrace(path)
					if err != nil {
						t.Fatal(err)
					}
					var cmds power.CommandTrace
					hub := obs.NewHub()
					hub.Attach(tracer)
					hub.Attach(obs.CommandFunc(cmds.Record))
					run := runLedger(t, s, kind, hub)
					if err := tracer.Close(); err != nil {
						t.Fatal(err)
					}
					if traces[i], err = os.ReadFile(path); err != nil {
						t.Fatal(err)
					}
					system.MatchGolden(t, dumpStats(t, run.reg), ledgerGolden(s.name, kind))
					if cmds.Len() == 0 {
						t.Fatal("no DRAM commands recorded")
					}
					if vs := power.CheckTiming(dram.DDR3_1333_8x8(), cmds.Commands()); len(vs) > 0 {
						t.Fatalf("%d timing violations in %d commands, first %s", len(vs), cmds.Len(), vs[0])
					}
				}
				if lines := bytes.Count(traces[0], []byte("\n")); lines < ledgerRequests {
					t.Errorf("trace holds %d lines for %d requests", lines, ledgerRequests)
				}
				if !bytes.Equal(traces[0], traces[1]) {
					t.Errorf("two traced runs wrote different traces (%d and %d bytes)", len(traces[0]), len(traces[1]))
				}
			})
		}
	}
}

// TestEventCensus pins the events per request of every event name for the
// ledger's five shapes on the event model (a sharded shape's kernels summed),
// for the random mix over four channels on one kernel and for the multichan
// recipe on one kernel (testdata/events_by_name.txt). A change that moves the
// event count shows here which event moved; the golden changes with it. On
// multichan_4ch the census shows what the ledger's events_per_req counts
// there besides the controllers and the crossbar: the shard links' drains.
// A generator's tick that a response or a retry makes due now is deferred and
// fires uncounted, whatever else shares its tick, so no
// genN.tick row appears there or in multichan_onekernel.
func TestEventCensus(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# events per request by event name (TestEventCensus, internal/system)\n")
	write := func(shape string, census map[string]uint64, reqs uint64) {
		names := make([]string, 0, len(census))
		for name := range census {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			fmt.Fprintf(&sb, "%-20s %-28s %.4f\n", shape, name, float64(census[name])/float64(reqs))
		}
	}
	for _, s := range ledgerShapes {
		census := map[string]uint64{}
		for _, k := range runLedger(t, s, system.EventBased, nil).kernels {
			for name, n := range k.Census() {
				census[name] += n
			}
		}
		write(s.name, census, ledgerRequests)
	}
	census, reqs := fourChannels(t)
	write("4ch", census, reqs)
	write("multichan_onekernel", multichanOneKernel(t), ledgerRequests)
	system.MatchGolden(t, []byte(sb.String()), filepath.Join("testdata", "events_by_name.txt"))
}

// fourChannels is the census's one shape off the ledger: the random mix over
// four controllers behind a crossbar on one kernel, the system.NewMemory path
// dramctrl -channels 4 runs.
func fourChannels(t *testing.T) (map[string]uint64, uint64) {
	t.Helper()
	const reqs = 2000
	m, err := system.NewMemory(system.MemoryDescription(system.EventBased, 4, true))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trafficgen.New(m.K, trafficgen.Config{RequestBytes: 64, MaxOutstanding: 32, Count: reqs},
		&trafficgen.Random{Start: 0, End: 256 << 20, Align: 64, ReadPercent: 50, Seed: 1}, m.Reg, "gen")
	if err != nil {
		t.Fatal(err)
	}
	mem.Connect(gen.Port(), m.FrontPort("gen"))
	if err := m.Session(gen).Run(sim.Second); err != nil || !gen.Done() {
		t.Fatalf("four channels did not complete: %v", err)
	}
	return m.K.Census(), reqs
}

// multichanOneKernel is the multichan recipe with every channel on the one
// kernel (system.NewMultiChannelRig): its generators' ticks are what the
// recipe costs once the shard links are gone.
func multichanOneKernel(t *testing.T) map[string]uint64 {
	t.Helper()
	rig, err := system.NewMultiChannelRig(multichanConfig(system.EventBased))
	if err != nil {
		t.Fatal(err)
	}
	if !rig.Run(sim.Second) {
		t.Fatal("multichan on one kernel did not complete")
	}
	return rig.K.Census()
}
