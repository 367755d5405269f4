package system

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// shardedConfig builds a two-generator, multi-channel sharded system with a
// deterministic mixed read/write workload.
func shardedConfig(kind Kind, channels, workers int, closed bool) ShardedConfig {
	spec := dram.DDR3_1600_x64()
	gen := trafficgen.Config{
		RequestBytes:   spec.Org.BurstBytes(),
		MaxOutstanding: 16,
		Count:          400,
	}
	g0, g1 := gen, gen
	g0.RequestorID = 0
	g1.RequestorID = 1
	return ShardedConfig{
		Kind:       kind,
		Spec:       spec,
		Mapping:    dram.RoRaBaCoCh,
		ClosedPage: closed,
		Channels:   channels,
		Xbar:       xbar.DefaultConfig(),
		Gens:       []trafficgen.Config{g0, g1},
		Patterns: []trafficgen.Pattern{
			&trafficgen.Linear{Start: 0, End: 1 << 24, Step: 64, ReadPercent: 80, Seed: 11},
			&trafficgen.Random{Start: 0, End: 1 << 24, Align: 64, ReadPercent: 60, Seed: 23},
		},
		Workers: workers,
	}
}

// shardedStats runs the rig to completion and returns the full stats dump
// (reads, writes, row hits, latency histograms — everything).
func shardedStats(t *testing.T, cfg ShardedConfig) (string, sim.Tick) {
	t.Helper()
	rig, err := NewShardedRig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rig.Run(50 * sim.Millisecond) {
		t.Fatal("sharded rig did not complete")
	}
	var buf bytes.Buffer
	if err := rig.Reg.DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), rig.Front.Now()
}

// The tentpole determinism claim: for the same seed and topology, serial
// (workers=1) and parallel (workers=N) runs produce bit-identical statistics
// — every counter and every latency histogram bucket — across page policies
// and channel counts. Run under -race this also exercises the sharded path
// for data races.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	for _, tc := range []struct {
		name     string
		channels int
		closed   bool
	}{
		{"open2ch", 2, false},
		{"closed2ch", 2, true},
		{"open4ch", 4, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial, serialNow := shardedStats(t, shardedConfig(EventBased, tc.channels, 1, tc.closed))
			for _, workers := range []int{2, 1 + tc.channels} {
				par, parNow := shardedStats(t, shardedConfig(EventBased, tc.channels, workers, tc.closed))
				if par != serial {
					t.Fatalf("workers=%d stats differ from serial run:\nserial:\n%s\nparallel:\n%s",
						workers, serial, par)
				}
				if parNow != serialNow {
					t.Fatalf("workers=%d finished at %s, serial at %s", workers, parNow, serialNow)
				}
			}
		})
	}
}

// The cycle-based controller model shards identically: the rig does not
// depend on which controller kind sits behind the links.
func TestShardedDeterministicCycleBased(t *testing.T) {
	serial, _ := shardedStats(t, shardedConfig(CycleBased, 2, 1, false))
	par, _ := shardedStats(t, shardedConfig(CycleBased, 2, 3, false))
	if par != serial {
		t.Fatal("cycle-based sharded run not deterministic across workers")
	}
}

// Repeated runs with identical configuration are bit-identical (determinism
// over time, not just across worker counts).
func TestShardedRepeatable(t *testing.T) {
	a, _ := shardedStats(t, shardedConfig(EventBased, 2, 2, false))
	b, _ := shardedStats(t, shardedConfig(EventBased, 2, 2, false))
	if a != b {
		t.Fatal("two identical sharded runs diverged")
	}
}

// The sharded system actually moves traffic: every generator completes and
// every channel sees work.
func TestShardedSpreadsWork(t *testing.T) {
	cfg := shardedConfig(EventBased, 4, 3, false)
	rig, err := NewShardedRig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rig.Run(50 * sim.Millisecond) {
		t.Fatal("did not complete")
	}
	for i, g := range rig.Gens {
		if !g.Done() {
			t.Fatalf("gen%d not done", i)
		}
	}
	for i, c := range rig.Ctrls {
		if c.Bandwidth() <= 0 {
			t.Fatalf("mc%d saw no traffic", i)
		}
	}
	if rig.AggregateBandwidth() <= 0 || rig.AvgBusUtilisation() <= 0 {
		t.Fatal("aggregate stats empty")
	}
	for _, l := range rig.Links {
		if !l.Quiescent() {
			t.Fatal("link not quiescent after completed run")
		}
	}
}

// Two shards panicking in the same quantum must BOTH be reported, each with
// its worker and kernel identity — and the session must stay closeable (the
// worker pool survives its shards' panics).
func TestShardedMultiPanicAttribution(t *testing.T) {
	for _, workers := range []int{0, 5} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			cfg := shardedConfig(EventBased, 4, workers, false)
			rig, err := NewShardedRig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s, err := rig.NewSession("", rig.Front.Now()+50*sim.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// Plant a bomb in two different shards, due inside the first
			// quantum.
			for _, ci := range []int{1, 3} {
				ci := ci
				k := rig.Chans[ci]
				k.Schedule(sim.NewEvent("boom", func() { panic(fmt.Sprintf("boom-chan%d", ci)) }), k.Now())
			}
			s.Start()
			var spe *ShardPanicError
			func() {
				defer func() {
					r := recover()
					var ok bool
					if spe, ok = r.(*ShardPanicError); !ok {
						t.Fatalf("expected *ShardPanicError, got %T: %v", r, r)
					}
				}()
				for {
					if done, err := s.Step(); done || err != nil {
						t.Fatalf("step returned (%v, %v) instead of panicking", done, err)
					}
				}
			}()
			if len(spe.Panics) != 2 {
				t.Fatalf("got %d panics, want 2: %v", len(spe.Panics), spe)
			}
			seen := map[string]int{}
			for _, p := range spe.Panics {
				seen[p.Kernel] = p.Worker
				want := fmt.Sprintf("boom-%s", p.Kernel)
				if p.Value != want {
					t.Fatalf("kernel %s carries value %v, want %q", p.Kernel, p.Value, want)
				}
			}
			if _, ok := seen["chan1"]; !ok {
				t.Fatalf("chan1 panic missing: %v", spe)
			}
			if _, ok := seen["chan3"]; !ok {
				t.Fatalf("chan3 panic missing: %v", spe)
			}
			if workers == 5 {
				// Round-robin assignment: kernels[2]=chan1 -> worker 2,
				// kernels[4]=chan3 -> worker 4.
				if seen["chan1"] != 2 || seen["chan3"] != 4 {
					t.Fatalf("worker attribution wrong: %v", seen)
				}
			}
			msg := spe.Error()
			if !strings.Contains(msg, "chan1") || !strings.Contains(msg, "chan3") {
				t.Fatalf("error string drops a shard: %s", msg)
			}
			// deferred Close must return promptly; if a worker deadlocked on
			// its done channel the test times out here.
		})
	}
}

// A sharded run with one channel and no extra workers degenerates to plain
// serial simulation and still completes.
func TestShardedSingleChannelSerial(t *testing.T) {
	cfg := shardedConfig(EventBased, 1, 0, false)
	rig, err := NewShardedRig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rig.Run(50 * sim.Millisecond) {
		t.Fatal("did not complete")
	}
}
