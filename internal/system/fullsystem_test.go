package system

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// fig8Config is the 4-core canneal system of Figure 8 (bench_test.go's
// BenchmarkFig8FullSystemEvent and the ledger's fullsys_canneal_4c).
func fig8Config(memOps uint64) MultiCoreConfig {
	coreCfg := cpu.DefaultConfig()
	coreCfg.InstrPerMemOp = 8
	coreCfg.MemOps = memOps
	return MultiCoreConfig{
		Cores: 4,
		Core:  coreCfg,
		Workload: func(id int) trafficgen.Pattern {
			return cpu.CannealWorkload(64<<20, int64(id)+1)
		},
		L1: cache.Config{
			SizeBytes: 64 * 1024, Assoc: 2, LineBytes: 64,
			HitLatency: 2 * sim.Nanosecond, MSHRs: 6, WriteBufferDepth: 8,
		},
		LLC: cache.Config{
			SizeBytes: 512 * 1024, Assoc: 8, LineBytes: 64,
			HitLatency: 12 * sim.Nanosecond, MSHRs: 16, WriteBufferDepth: 16,
		},
		Kind: EventBased, Spec: dram.DDR3_1333_8x8(), Mapping: dram.RoCoRaBaCh,
		ClosedPage: true, Channels: 1,
		CoreXbar: xbar.Config{Latency: 1 * sim.Nanosecond, QueueDepth: 32},
		MemXbar:  xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 32},
	}
}

// TestFullSystemSteadyStateZeroAlloc is the end-to-end gate over cpu -> L1
// -> crossbar -> LLC -> crossbar -> controller: once pools, MSHR files,
// rings and the kernel's event ring are warm, 50 us more of the Fig. 8
// system allocate nothing. The per-package gates (cpu, cache, xbar, core)
// say which layer broke when this one does.
func TestFullSystemSteadyStateZeroAlloc(t *testing.T) {
	fs, err := NewFullSystem(fig8Config(0)) // MemOps 0: cores run until the test stops stepping
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range fs.Cores {
		c.Start()
	}
	step := func() { fs.K.RunUntil(fs.K.Now() + 10*sim.Microsecond) }
	for i := 0; i < 100; i++ { // 1 ms: dirty evictions and refreshes included
		step()
	}
	misses := fs.LLC.Misses()
	if avg := testing.AllocsPerRun(4, step); avg != 0 {
		t.Fatalf("warm full system allocates %.1f objects per 10 us, want 0", avg)
	}
	if fs.LLC.Misses() == misses {
		t.Fatal("no LLC miss while measuring: the gate missed its path")
	}
}

// poisonTap sits on a core -> L1 link, forwards everything in the same call
// (no event, no tick: the statistics cannot tell it is there) and counts the
// responses that reach the core still carrying poison.
type poisonTap struct {
	up       *mem.ResponsePort // faces the core
	down     *mem.RequestPort  // faces the L1
	poisoned int
}

func newPoisonTap(req *mem.RequestPort, resp *mem.ResponsePort) *poisonTap {
	tap := &poisonTap{}
	tap.up = mem.NewResponsePort("tap.up", tap, nil)
	tap.down = mem.NewRequestPort("tap.down", tap, nil)
	mem.Connect(req, tap.up)
	mem.Connect(tap.down, resp)
	return tap
}

func (p *poisonTap) RecvTimingReq(pkt *mem.Packet) bool { return p.down.SendTimingReq(pkt) }
func (p *poisonTap) RecvRespRetry()                     { p.down.SendRespRetry() }
func (p *poisonTap) RecvReqRetry()                      { p.up.SendReqRetry() }
func (p *poisonTap) RecvTimingResp(pkt *mem.Packet) bool {
	if pkt.Poisoned {
		p.poisoned++
	}
	return p.up.SendTimingResp(pkt)
}

// TestFullSystemPrefetchAndPoisonReleasePaths drives the packet-release
// paths the benchmark never takes — stride-prefetch fills (useful, merged
// into, and dropped) and poisoned fills at both cache levels — through the
// whole hierarchy: two cores stream behind stride-prefetching L1s, two
// chase pointers, and the controller corrupts 2% of its bursts beyond
// repair. Every operation must still be answered exactly once, poison must
// arrive at the cores, and every statistic must equal the dump captured at
// the commit before packets were pooled.
func TestFullSystemPrefetchAndPoisonReleasePaths(t *testing.T) {
	const memOps = 3000
	cfg := fig8Config(memOps)
	cfg.L1.Prefetch = cache.PrefetchStride
	cfg.Workload = func(id int) trafficgen.Pattern {
		if id < 2 {
			return &cpu.Offset{Base: mem.Addr(0x1000_0000 * (id + 1)), Pattern: cpu.StreamWorkload(4<<20, int64(id)+1)}
		}
		return cpu.CannealWorkload(64<<20, int64(id)+1)
	}
	var taps []*poisonTap
	fs, err := newFullSystem(cfg, func(c *core.Config) {
		c.Faults = faults.Config{Seed: 7, UncorrectablePerBurst: 0.02}
	}, func(req *mem.RequestPort, resp *mem.ResponsePort) {
		taps = append(taps, newPoisonTap(req, resp))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fs.Run(50 * sim.Millisecond) {
		t.Fatal("full system did not complete")
	}

	stat := func(name string) float64 { return fs.Reg.Get(name).(*stats.Scalar).Value() }
	var poisoned, prefetches float64
	for i, c := range fs.Cores {
		name, l1 := fmt.Sprintf("sys.core%d", i), "sys."+fs.L1s[i].Name()
		if !c.Done() || stat(name+".memOps") != memOps {
			t.Errorf("%s: done %v after %v of %d operations", name, c.Done(), stat(name+".memOps"), memOps)
		}
		if n := fs.Reg.Get(name + ".loadLatency").(*stats.Average).Count(); n != memOps {
			t.Errorf("%s received %d responses, want %d", name, n, memOps)
		}
		if !fs.L1s[i].Quiescent() {
			t.Errorf("%s not quiescent", l1)
		}
		// Every poisoned demand fill has at least one core operation
		// waiting on it; only a poisoned prefetch is dropped without one.
		if got, fills := float64(taps[i].poisoned), stat(l1+".poisonedFills"); got < fills-stat(l1+".prefetches") {
			t.Errorf("%s saw %v poisoned responses for %v poisoned fills of its L1", name, got, fills)
		}
		poisoned += float64(taps[i].poisoned)
		prefetches += stat(l1 + ".prefetches")
	}
	if !fs.LLC.Quiescent() {
		t.Error("llc not quiescent")
	}
	if prefetches == 0 || poisoned == 0 || stat("sys.llc.poisonedFills") == 0 || stat("sys.llc.writebacks") == 0 {
		t.Fatalf("paths not exercised: %v prefetches, %v poisoned responses, %v poisoned LLC fills, %v LLC writebacks",
			prefetches, poisoned, stat("sys.llc.poisonedFills"), stat("sys.llc.writebacks"))
	}

	var dump bytes.Buffer
	if err := fs.Reg.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "fullsys_prefetch_poison.stats")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump.Bytes(), want) {
		got, exp := strings.Split(dump.String(), "\n"), strings.Split(string(want), "\n")
		for i := range got {
			if i >= len(exp) || got[i] != exp[i] {
				t.Fatalf("stats differ from %s at line %d:\n got %q\nwant %q", golden, i+1, got[i], exp[min(i, len(exp)-1)])
			}
		}
		t.Fatalf("stats dump is a prefix of %s", golden)
	}
}
