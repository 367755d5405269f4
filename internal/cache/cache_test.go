package cache

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// fakeMem answers line fills after a fixed delay and records traffic.
type fakeMem struct {
	k       *sim.Kernel
	port    *mem.ResponsePort
	delay   sim.Tick
	reads   int
	writes  int
	refuse  int
	pending []*mem.Packet
	waiting bool
}

func newFakeMem(k *sim.Kernel, delay sim.Tick) *fakeMem {
	f := &fakeMem{k: k, delay: delay}
	f.port = mem.NewResponsePort("mem", f, k)
	return f
}

func (f *fakeMem) RecvTimingReq(pkt *mem.Packet) bool {
	if f.refuse > 0 {
		f.refuse--
		f.waiting = true
		f.k.Schedule(sim.NewEvent("memRetry", func() {
			if f.waiting {
				f.waiting = false
				f.port.SendReqRetry()
			}
		}), f.k.Now()+20*sim.Nanosecond)
		return false
	}
	if pkt.Cmd == mem.ReadReq {
		f.reads++
	} else {
		f.writes++
	}
	f.k.Schedule(sim.NewEvent("memResp", func() {
		pkt.MakeResponse()
		if !f.port.SendTimingResp(pkt) {
			f.pending = append(f.pending, pkt)
		}
	}), f.k.Now()+f.delay)
	return true
}

func (f *fakeMem) RecvRespRetry() {
	for len(f.pending) > 0 {
		if !f.port.SendTimingResp(f.pending[0]) {
			return
		}
		f.pending = f.pending[1:]
	}
}

// cpu drives the cache and records responses.
type cpu struct {
	k         *sim.Kernel
	port      *mem.RequestPort
	responses []*mem.Packet
	respTicks []sim.Tick
	blocked   *mem.Packet
	retries   int
	// onResp, when set, is invoked after each accepted response (for
	// dependent-chain tests).
	onResp func(*mem.Packet)
	// refuse is how many responses to refuse before accepting again.
	refuse int
}

func newCPU(k *sim.Kernel) *cpu {
	c := &cpu{k: k}
	c.port = mem.NewRequestPort("cpu", c, k)
	return c
}

func (c *cpu) RecvTimingResp(pkt *mem.Packet) bool {
	if c.refuse > 0 {
		c.refuse--
		return false
	}
	c.responses = append(c.responses, pkt)
	c.respTicks = append(c.respTicks, c.k.Now())
	if c.onResp != nil {
		c.onResp(pkt)
	}
	return true
}

func (c *cpu) RecvReqRetry() {
	c.retries++
	if c.blocked != nil {
		pkt := c.blocked
		c.blocked = nil
		if !c.port.SendTimingReq(pkt) {
			c.blocked = pkt
		}
	}
}

func (c *cpu) send(pkt *mem.Packet) bool {
	pkt.IssueTick = c.k.Now()
	if !c.port.SendTimingReq(pkt) {
		c.blocked = pkt
		return false
	}
	return true
}

func defaultCfg() Config {
	return Config{
		SizeBytes:        8 * 1024,
		Assoc:            2,
		LineBytes:        64,
		HitLatency:       2 * sim.Nanosecond,
		MSHRs:            4,
		WriteBufferDepth: 8,
	}
}

func build(t *testing.T, cfg Config, memDelay sim.Tick) (*sim.Kernel, *cpu, *Cache, *fakeMem) {
	t.Helper()
	k := sim.NewKernel()
	reg := stats.NewRegistry("t")
	c, err := New(k, cfg, reg, "l1")
	if err != nil {
		t.Fatal(err)
	}
	u := newCPU(k)
	m := newFakeMem(k, memDelay)
	mem.Connect(u.port, c.CPUPort())
	mem.Connect(c.MemPort(), m.port)
	return k, u, c, m
}

func at(k *sim.Kernel, when sim.Tick, fn func()) {
	k.Schedule(sim.NewEvent("test", fn), when)
}

func TestConfigValidate(t *testing.T) {
	if err := defaultCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.SizeBytes = 0 },
		func(c *Config) { c.LineBytes = 48 },
		func(c *Config) { c.Assoc = 0 },
		func(c *Config) { c.SizeBytes = 1000 },
		func(c *Config) { c.HitLatency = -1 },
		func(c *Config) { c.MSHRs = 0 },
		func(c *Config) { c.WriteBufferDepth = 0 },
	}
	for i, mut := range bad {
		cfg := defaultCfg()
		mut(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	// Construction rejects a set count that is not a power of two, and a
	// geometry whose tags could reach the flag bits of a tag word
	// (log2(LineBytes) + log2(sets) < 3).
	for _, tc := range []struct {
		name       string
		size, line uint64
		assoc      int
		wantErr    string
	}{
		{"non-pow2 sets", 3 * 64 * 2, 64, 2, "not a power of two"},
		{"4-byte lines, 1 set", 4 * 2, 4, 2, "overlap the 3 flag bits"},
		{"1-byte lines, 4 sets", 4, 1, 1, "overlap the 3 flag bits"},
		{"8-byte lines, 1 set", 8 * 2, 8, 2, ""},
		{"2-byte lines, 4 sets", 8, 2, 1, ""},
	} {
		cfg := defaultCfg()
		cfg.SizeBytes, cfg.LineBytes, cfg.Assoc = tc.size, tc.line, tc.assoc
		_, err := New(sim.NewKernel(), cfg, stats.NewRegistry(""), "x")
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestMissThenHit(t *testing.T) {
	k, u, c, m := build(t, defaultCfg(), 100*sim.Nanosecond)
	at(k, 0, func() { u.send(mem.NewRead(0x100, 8, 0, 0)) })
	at(k, 500*sim.Nanosecond, func() { u.send(mem.NewRead(0x108, 8, 0, 0)) })
	k.RunUntil(sim.Microsecond)
	if len(u.responses) != 2 {
		t.Fatalf("responses = %d", len(u.responses))
	}
	// First: miss -> fill (100 ns) + hit latency (2 ns).
	if u.respTicks[0] != 102*sim.Nanosecond {
		t.Fatalf("miss latency = %s, want 102ns", u.respTicks[0])
	}
	// Second: pure hit, 2 ns after issue.
	if u.respTicks[1] != 502*sim.Nanosecond {
		t.Fatalf("hit latency = %s, want 502ns", u.respTicks[1])
	}
	if c.Misses() != 1 || c.HitRate() != 0.5 {
		t.Fatalf("misses=%d hitRate=%v", c.Misses(), c.HitRate())
	}
	if m.reads != 1 {
		t.Fatalf("memory reads = %d, want 1 line fill", m.reads)
	}
}

// A refused response goes back to the head of the response queue: after the
// requestor's retry it leaves first, and the one queued behind it follows.
func TestRefusedResponseKeepsItsPlace(t *testing.T) {
	k, u, _, _ := build(t, defaultCfg(), 100*sim.Nanosecond)
	at(k, 0, func() { u.send(mem.NewRead(0x100, 8, 0, 0)) }) // fills the line
	at(k, 500*sim.Nanosecond, func() {
		u.refuse = 1
		u.send(mem.NewRead(0x100, 8, 0, 0))
		u.send(mem.NewRead(0x108, 8, 0, 0))
	})
	at(k, 600*sim.Nanosecond, func() { u.port.SendRespRetry() })
	k.RunUntil(sim.Microsecond)
	if len(u.responses) != 3 || u.responses[1].Addr != 0x100 || u.responses[2].Addr != 0x108 {
		t.Fatalf("responses = %v, want the fill then 0x100 then 0x108", u.responses)
	}
	if u.respTicks[1] != 600*sim.Nanosecond || u.respTicks[2] != 600*sim.Nanosecond {
		t.Fatalf("hits answered at %s and %s, want both at the retry (600ns)", u.respTicks[1], u.respTicks[2])
	}
}

func TestWriteAllocateAndWriteback(t *testing.T) {
	cfg := defaultCfg()
	cfg.SizeBytes = 2 * 64 // direct-mapped-ish tiny cache: 1 set x 2 ways
	cfg.Assoc = 2
	k, u, _, m := build(t, cfg, 50*sim.Nanosecond)
	// Write misses allocate; a third distinct line evicts the dirty LRU.
	at(k, 0, func() { u.send(mem.NewWrite(0x0, 8, 0, 0)) })
	at(k, 200*sim.Nanosecond, func() { u.send(mem.NewWrite(0x40, 8, 0, 0)) })
	at(k, 400*sim.Nanosecond, func() { u.send(mem.NewRead(0x80, 8, 0, 0)) })
	k.RunUntil(2 * sim.Microsecond)
	if len(u.responses) != 3 {
		t.Fatalf("responses = %d", len(u.responses))
	}
	if m.writes != 1 {
		t.Fatalf("writebacks to memory = %d, want 1 (dirty LRU evicted)", m.writes)
	}
	if m.reads != 3 {
		t.Fatalf("line fills = %d, want 3", m.reads)
	}
}

func TestMSHRMerge(t *testing.T) {
	k, u, c, m := build(t, defaultCfg(), 100*sim.Nanosecond)
	at(k, 0, func() {
		u.send(mem.NewRead(0x200, 8, 0, 0))
		u.send(mem.NewRead(0x208, 8, 0, 0)) // same line, in-flight
		u.send(mem.NewRead(0x210, 8, 0, 0)) // same line again
	})
	k.RunUntil(sim.Microsecond)
	if len(u.responses) != 3 {
		t.Fatalf("responses = %d", len(u.responses))
	}
	if m.reads != 1 {
		t.Fatalf("fills = %d, want 1 (merged)", m.reads)
	}
	if got := c.st.mshrMerges.Value(); got != 2 {
		t.Fatalf("merges = %v, want 2", got)
	}
}

func TestMSHRExhaustionBlocks(t *testing.T) {
	cfg := defaultCfg()
	cfg.MSHRs = 2
	k, u, c, _ := build(t, cfg, 200*sim.Nanosecond)
	at(k, 0, func() {
		u.send(mem.NewRead(0x000, 8, 0, 0))
		u.send(mem.NewRead(0x400, 8, 0, 0))
		if u.send(mem.NewRead(0x800, 8, 0, 0)) {
			t.Error("third distinct miss accepted with 2 MSHRs")
		}
	})
	k.RunUntil(2 * sim.Microsecond)
	if len(u.responses) != 3 {
		t.Fatalf("responses = %d (blocked request must be retried)", len(u.responses))
	}
	if u.retries == 0 {
		t.Fatal("no retry delivered")
	}
	if c.st.blockedOnMSHRs.Value() == 0 {
		t.Fatal("blockedOnMSHRs not counted")
	}
}

func TestLRUReplacement(t *testing.T) {
	cfg := defaultCfg()
	cfg.SizeBytes = 2 * 64 // one set, two ways
	k, u, _, m := build(t, cfg, 10*sim.Nanosecond)
	// Fill ways with A and B; touch A; insert C -> B must be evicted, so a
	// subsequent access to A still hits, to B misses.
	at(k, 0, func() { u.send(mem.NewRead(0x000, 8, 0, 0)) })                 // A
	at(k, 100*sim.Nanosecond, func() { u.send(mem.NewRead(0x40, 8, 0, 0)) }) // B
	at(k, 200*sim.Nanosecond, func() { u.send(mem.NewRead(0x00, 8, 0, 0)) }) // touch A
	at(k, 300*sim.Nanosecond, func() { u.send(mem.NewRead(0x80, 8, 0, 0)) }) // C evicts B
	at(k, 400*sim.Nanosecond, func() { u.send(mem.NewRead(0x00, 8, 0, 0)) }) // A hits
	at(k, 500*sim.Nanosecond, func() { u.send(mem.NewRead(0x40, 8, 0, 0)) }) // B misses
	k.RunUntil(2 * sim.Microsecond)
	if m.reads != 4 { // A, B, C, B-again
		t.Fatalf("fills = %d, want 4", m.reads)
	}
}

// TestLRUOrder walks one 4-way set through fills, hits and two evictions,
// checking after each step that the set's words are in recency order, most
// recent first: the last way is the one a fill replaces.
func TestLRUOrder(t *testing.T) {
	cfg := defaultCfg()
	cfg.SizeBytes, cfg.Assoc = 4*64, 4 // one set, four ways
	k := sim.NewKernel()
	c, err := New(k, cfg, stats.NewRegistry("t"), "c")
	if err != nil {
		t.Fatal(err)
	}
	hm := &heldMem{}
	hm.port = mem.NewResponsePort("mem", hm, k)
	cpuPort := mem.NewRequestPort("cpu", sinkCPU{}, k)
	mem.Connect(cpuPort, c.CPUPort())
	mem.Connect(c.MemPort(), hm.port)

	const A, B, C, D, E, F mem.Addr = 0x000, 0x040, 0x080, 0x0c0, 0x100, 0x140
	name := map[mem.Addr]string{A: "A", B: "B", C: "C", D: "D", E: "E", F: "F"}
	// access sends one request, answers its fill and acknowledges any
	// writeback at once.
	access := func(addr mem.Addr, write bool) {
		t.Helper()
		pkt := mem.NewRead(addr, 8, 0, k.Now())
		if write {
			pkt = mem.NewWrite(addr, 8, 0, k.Now())
		}
		if !cpuPort.SendTimingReq(pkt) {
			t.Fatalf("access to %s refused", name[addr])
		}
		for _, q := range []*[]*mem.Packet{&hm.fills, &hm.acks} {
			for _, p := range *q {
				p.MakeResponse()
				hm.port.SendTimingResp(p)
			}
			*q = (*q)[:0]
		}
		k.RunUntil(k.Now() + cfg.HitLatency)
	}
	order := func(step string, want ...mem.Addr) {
		t.Helper()
		var got []string
		for _, w := range c.ways(0) {
			if l := lineOf(w); l.valid {
				got = append(got, name[mem.Addr(l.tag<<c.lineBits)])
			}
		}
		var exp []string
		for _, a := range want {
			exp = append(exp, name[a])
		}
		if !slices.Equal(got, exp) {
			t.Fatalf("after %s the set holds %v, most recent first; want %v", step, got, exp)
		}
	}

	access(A, false)
	access(B, true)
	access(C, false)
	access(D, false)
	order("filling A, B (written), C and D", D, C, B, A)
	access(A, false)
	order("a hit on A", A, D, C, B)
	access(C, false)
	order("a hit on C", C, A, D, B)
	access(E, false)
	order("a miss on E", E, C, A, D)
	if !slices.Equal(hm.writes, []mem.Addr{B}) {
		t.Fatalf("the miss on E wrote back %#x, want B's address %#x", hm.writes, B)
	}
	access(F, false)
	order("a miss on F", F, E, C, A)
	if len(hm.writes) != 1 || c.st.evictions.Value() != 2 {
		t.Fatalf("the miss on F: %d writebacks, %v evictions; want D, clean, evicted", len(hm.writes), c.st.evictions.Value())
	}
	before := slices.Clone(c.tags)
	access(F, false)
	if !slices.Equal(c.tags, before) {
		t.Fatalf("a hit on the most recent line moved the set from %#x to %#x", before, c.tags)
	}
}

func TestMemPortBackPressure(t *testing.T) {
	k, u, _, m := build(t, defaultCfg(), 30*sim.Nanosecond)
	m.refuse = 2
	at(k, 0, func() { u.send(mem.NewRead(0x0, 8, 0, 0)) })
	k.RunUntil(2 * sim.Microsecond)
	if len(u.responses) != 1 {
		t.Fatalf("responses = %d despite memory retries", len(u.responses))
	}
}

func TestStraddlingRequestPanics(t *testing.T) {
	k, u, _, _ := build(t, defaultCfg(), 10*sim.Nanosecond)
	defer func() {
		if recover() == nil {
			t.Fatal("straddling request did not panic")
		}
	}()
	at(k, 0, func() { u.send(mem.NewRead(0x3C, 16, 0, 0)) })
	k.RunUntil(sim.Microsecond)
}

// End-to-end against the real DRAM controller: the cache filters traffic so
// the controller sees only line fills and writebacks.
func TestCacheOverDRAMController(t *testing.T) {
	k := sim.NewKernel()
	reg := stats.NewRegistry("t")
	cfg := defaultCfg()
	c, err := New(k, cfg, reg, "l1")
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.NewController(k, core.DefaultConfig(dram.DDR3_1600_x64()), reg, "mc")
	if err != nil {
		t.Fatal(err)
	}
	u := newCPU(k)
	mem.Connect(u.port, c.CPUPort())
	mem.Connect(c.MemPort(), ctrl.Port())

	// 64 sequential 8-byte reads = 8 lines = 8 fills. Issues are spaced
	// beyond the fill latency so same-line accesses hit rather than merge
	// into the in-flight MSHR (merges count as misses, as in gem5).
	at(k, 0, func() {
		var issue func(i int)
		issue = func(i int) {
			if i >= 64 {
				return
			}
			u.send(mem.NewRead(mem.Addr(i*8), 8, 0, k.Now()))
			at(k, k.Now()+100*sim.Nanosecond, func() { issue(i + 1) })
		}
		issue(0)
	})
	for i := 0; i < 100 && len(u.responses) < 64; i++ {
		k.RunUntil(k.Now() + sim.Microsecond)
	}
	if len(u.responses) != 64 {
		t.Fatalf("responses = %d", len(u.responses))
	}
	ps := ctrl.PowerStats()
	if ps.ReadBursts != 8 {
		t.Fatalf("controller saw %d bursts, want 8 line fills", ps.ReadBursts)
	}
	if c.HitRate() < 0.85 {
		t.Fatalf("hit rate = %v, want 56/64", c.HitRate())
	}
}

// Property: every accepted request is answered exactly once and the cache
// never exceeds its MSHR bound.
func TestRandomTrafficProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel()
		reg := stats.NewRegistry("t")
		cfg := defaultCfg()
		cfg.MSHRs = 3
		c, err := New(k, cfg, reg, "l1")
		if err != nil {
			return false
		}
		u := newCPU(k)
		m := newFakeMem(k, sim.Tick(rng.Intn(100)+1)*sim.Nanosecond)
		mem.Connect(u.port, c.CPUPort())
		mem.Connect(c.MemPort(), m.port)

		n := 200
		sent := 0
		ok := true
		var inject func()
		inject = func() {
			if c.mshrsInUse > cfg.MSHRs {
				ok = false
			}
			if u.blocked == nil && sent < n {
				addr := mem.Addr(rng.Intn(1<<14)) &^ 7
				if rng.Intn(2) == 0 {
					u.send(mem.NewRead(addr, 8, 0, k.Now()))
				} else {
					u.send(mem.NewWrite(addr, 8, 0, k.Now()))
				}
				sent++
			}
			if sent < n || u.blocked != nil {
				k.Schedule(sim.NewEvent("inject", inject), k.Now()+sim.Tick(rng.Intn(20)+1)*sim.Nanosecond)
			}
		}
		k.Schedule(sim.NewEvent("inject", inject), 0)
		for i := 0; i < 1000 && len(u.responses) < n; i++ {
			if err := runCheckingMSHRIndex(k, c, k.Now()+sim.Microsecond); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		return ok && len(u.responses) == n && c.Quiescent()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// checkMSHRIndex reports where mshrLines[:mshrsInUse] stops mirroring the
// live MSHR slots: entry i must be the line slot i fetches, and no line may
// have two fills in flight.
func checkMSHRIndex(c *Cache) error {
	if c.mshrsInUse < 0 || c.mshrsInUse > len(c.mshrs) || len(c.mshrLines) != len(c.mshrs) {
		return fmt.Errorf("%d of %d MSHRs live, %d index entries", c.mshrsInUse, len(c.mshrs), len(c.mshrLines))
	}
	for i, a := range c.mshrLines[:c.mshrsInUse] {
		if f := c.mshrs[i].fill; f == nil || f.Addr != a {
			return fmt.Errorf("MSHR index %d holds %#x, its slot fetches %v", i, uint64(a), f)
		}
		for j := range i {
			if c.mshrLines[j] == a {
				return fmt.Errorf("line %#x has two MSHRs (%d and %d)", uint64(a), j, i)
			}
		}
	}
	return nil
}

// runCheckingMSHRIndex runs k to limit one event at a time (a watchdog bound
// of one more event ends each run) and stops with an error as soon as the
// MSHR index of c stops mirroring its slots.
func runCheckingMSHRIndex(k *sim.Kernel, c *Cache, limit sim.Tick) error {
	for {
		next, ok := k.PeekNext()
		if !ok || next > limit {
			k.RunUntil(limit)
			return nil
		}
		k.SetWatchdog(sim.Watchdog{MaxEvents: k.EventsExecuted() + 1})
		k.RunUntilErr(next) // the watchdog error is the stop after one event
		k.SetWatchdog(sim.Watchdog{})
		if err := checkMSHRIndex(c); err != nil {
			return fmt.Errorf("at %s after event %d: %w", k.Now(), k.EventsExecuted(), err)
		}
	}
}

// runChecked is runCheckingMSHRIndex failing t.
func runChecked(t *testing.T, k *sim.Kernel, c *Cache, limit sim.Tick) {
	t.Helper()
	if err := runCheckingMSHRIndex(k, c, limit); err != nil {
		t.Fatal(err)
	}
}

// line is one way of the tag store as a struct with its own LRU tick: the
// layout the packed tag words, kept in recency order, replaced. It and the
// lineOracle methods below are that implementation, kept as the referee of
// TestTagStoreMatchesLineOracle.
type line struct {
	tag     uint64
	valid   bool
	dirty   bool
	lastUse uint64
	// prefetched marks lines brought in by the prefetcher and not yet
	// touched by demand traffic (for accuracy accounting).
	prefetched bool
}

// oracleMSHR is one fill in flight in the oracle.
type oracleMSHR struct {
	lineAddr mem.Addr
	prefetch bool
	waiters  int
	write    bool // a waiter is a write, so the installed line is dirty
}

// lineOracle keeps a cache's tag store as one []line and its MSHR file as a
// slice scanned by line address (a retired fill swaps with the last, as in
// the cache), and applies the cache's demand, fill and prefetch rules to them.
type lineOracle struct {
	cfg               Config
	lines             []line
	setMask           uint64
	lineBits, setBits uint
	useTick           uint64
	mshrs             []oracleMSHR
	strides           map[int]*strideState
	// sent logs every fill the oracle sent to memory, in order; prefetches
	// counts those the prefetcher sent.
	sent       []mem.Addr
	prefetches int
}

func newLineOracle(cfg Config) *lineOracle {
	sets := cfg.SizeBytes / cfg.LineBytes / uint64(cfg.Assoc)
	return &lineOracle{
		cfg:      cfg,
		lines:    make([]line, sets*uint64(cfg.Assoc)),
		setMask:  sets - 1,
		lineBits: uint(bits.TrailingZeros64(cfg.LineBytes)),
		setBits:  uint(bits.TrailingZeros64(sets)),
		strides:  map[int]*strideState{},
	}
}

func (o *lineOracle) indexOf(lineAddr mem.Addr) (set uint64, tag uint64) {
	l := uint64(lineAddr) >> o.lineBits
	return l & o.setMask, l >> o.setBits
}

// ways returns the lines of one set.
func (o *lineOracle) ways(set uint64) []line {
	a := uint64(o.cfg.Assoc)
	return o.lines[set*a : (set+1)*a]
}

// lookup finds the line holding tag in set, or nil.
func (o *lineOracle) lookup(set, tag uint64) *line {
	ways := o.ways(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			return &ways[i]
		}
	}
	return nil
}

// victim picks the LRU line of a set.
func (o *lineOracle) victim(set uint64) *line {
	ways := o.ways(set)
	best := &ways[0]
	for i := range ways {
		w := &ways[i]
		if !w.valid {
			return w
		}
		if w.lastUse < best.lastUse {
			best = w
		}
	}
	return best
}

// recency returns the lines of set as the cache must order their words:
// the valid ones newest first, then an empty line per invalid way. The
// ticks are cleared, since the cache keeps none.
func (o *lineOracle) recency(set uint64) []line {
	ways := make([]line, 0, o.cfg.Assoc)
	for _, l := range o.ways(set) {
		if l.valid {
			ways = append(ways, l)
		}
	}
	slices.SortFunc(ways, func(a, b line) int { return cmp.Compare(b.lastUse, a.lastUse) })
	for i := range ways {
		ways[i].lastUse = 0
	}
	return append(ways, make([]line, o.cfg.Assoc-len(ways))...)
}

// lineOf decodes a tag word.
func lineOf(w uint64) line {
	return line{tag: w &^ (tagValid | tagDirty | tagPrefetched), valid: w&tagValid != 0,
		dirty: w&tagDirty != 0, prefetched: w&tagPrefetched != 0}
}

// touch refreshes LRU state.
func (o *lineOracle) touch(l *line) {
	o.useTick++
	l.lastUse = o.useTick
}

// findMSHR returns the live fill of lineAddr, or -1.
func (o *lineOracle) findMSHR(lineAddr mem.Addr) int {
	for i := range o.mshrs {
		if o.mshrs[i].lineAddr == lineAddr {
			return i
		}
	}
	return -1
}

// verdict is what a cache does with one demand request.
type verdict int

const (
	verdictHit verdict = iota
	verdictMerge
	verdictRefused
	verdictMiss
)

func (v verdict) String() string { return [...]string{"hit", "merge", "refused", "new miss"}[v] }

func (o *lineOracle) access(addr mem.Addr, write bool, requestor int) verdict {
	lineAddr := addr.AlignDown(o.cfg.LineBytes)
	set, tag := o.indexOf(lineAddr)
	if l := o.lookup(set, tag); l != nil {
		o.touch(l)
		if l.prefetched {
			l.prefetched = false
			o.maybePrefetch(lineAddr, requestor)
		}
		if write {
			l.dirty = true
		}
		return verdictHit
	}
	if i := o.findMSHR(lineAddr); i >= 0 {
		m := &o.mshrs[i]
		m.waiters++
		m.write = m.write || write
		m.prefetch = false
		return verdictMerge
	}
	if len(o.mshrs) >= o.cfg.MSHRs {
		return verdictRefused
	}
	o.send(oracleMSHR{lineAddr: lineAddr, waiters: 1, write: write})
	o.maybePrefetch(lineAddr, requestor)
	return verdictMiss
}

func (o *lineOracle) send(m oracleMSHR) {
	o.mshrs = append(o.mshrs, m)
	o.sent = append(o.sent, m.lineAddr)
}

func (o *lineOracle) maybePrefetch(demand mem.Addr, requestor int) {
	switch o.cfg.Prefetch {
	case PrefetchNextLine:
		o.issuePrefetch(demand + mem.Addr(o.cfg.LineBytes))
	case PrefetchStride:
		st := o.strides[requestor]
		if st == nil {
			st = &strideState{}
			o.strides[requestor] = st
		}
		stride := int64(demand) - int64(st.lastAddr)
		if st.lastAddr != 0 && stride == st.stride && stride != 0 {
			st.confirmed++
		} else {
			st.confirmed, st.stride = 0, stride
		}
		st.lastAddr = demand
		for d := int64(1); st.confirmed >= 2 && d <= strideDegree; d++ {
			target := int64(demand) + st.stride*d
			if target < 0 {
				break
			}
			o.issuePrefetch(mem.Addr(target))
		}
	}
}

func (o *lineOracle) issuePrefetch(addr mem.Addr) {
	lineAddr := addr.AlignDown(o.cfg.LineBytes)
	set, tag := o.indexOf(lineAddr)
	if o.lookup(set, tag) != nil || o.findMSHR(lineAddr) >= 0 || len(o.mshrs) >= o.cfg.MSHRs-1 {
		return
	}
	o.send(oracleMSHR{lineAddr: lineAddr, prefetch: true})
	o.prefetches++
}

// fill retires the fill of lineAddr and, unless it is poisoned, installs the
// line over the set's victim. It reports the writeback the eviction sends.
func (o *lineOracle) fill(lineAddr mem.Addr, poisoned bool) (wb mem.Addr, hasWB bool) {
	i := o.findMSHR(lineAddr)
	m := o.mshrs[i]
	last := len(o.mshrs) - 1
	o.mshrs[i] = o.mshrs[last]
	o.mshrs = o.mshrs[:last]
	if poisoned {
		return 0, false
	}
	set, tag := o.indexOf(lineAddr)
	v := o.victim(set)
	if v.valid && v.dirty {
		wb, hasWB = mem.Addr((v.tag<<o.setBits|set)<<o.lineBits), true
	}
	*v = line{tag: tag, valid: true, dirty: m.write, prefetched: m.prefetch}
	o.touch(v)
	return wb, hasWB
}

// heldMem takes every request and answers nothing by itself: the test
// returns fills in the order it chooses and acknowledges writebacks.
type heldMem struct {
	port   *mem.ResponsePort
	fills  []*mem.Packet // fills not yet answered
	sent   []mem.Addr    // every fill received, in order
	acks   []*mem.Packet // writebacks not yet acknowledged
	writes []mem.Addr    // every writeback received, in order
}

func (m *heldMem) RecvTimingReq(pkt *mem.Packet) bool {
	if pkt.Cmd == mem.ReadReq {
		m.fills = append(m.fills, pkt)
		m.sent = append(m.sent, pkt.Addr)
	} else {
		m.acks = append(m.acks, pkt)
		m.writes = append(m.writes, pkt.Addr)
	}
	return true
}

func (m *heldMem) RecvRespRetry() {}

// sinkCPU takes every response and ignores retries: a refused request is
// dropped, not resent.
type sinkCPU struct{}

func (sinkCPU) RecvTimingResp(*mem.Packet) bool { return true }
func (sinkCPU) RecvReqRetry()                   {}

// tagStoreGeometry decodes one byte into a cache: 1, 2 or 8 ways, 1 or 16
// sets, each prefetch policy, and 2 to 4 MSHRs.
func tagStoreGeometry(g uint8) Config {
	assoc := [...]int{1, 2, 8}[g%3]
	sets := [...]uint64{1, 16}[g/3%2]
	return Config{
		SizeBytes: sets * uint64(assoc) * 64, Assoc: assoc, LineBytes: 64,
		HitLatency: 2 * sim.Nanosecond, MSHRs: 2 + int(g/18%3), WriteBufferDepth: 8,
		Prefetch: PrefetchPolicy(g / 6 % 3),
	}
}

// runTagStoreOps drives a cache of geometry g and its lineOracle with the
// same programme and fails t at the first step after which they disagree:
// the verdict, the fills and writebacks sent, the line a fill evicts, the
// recency order of every set, or the MSHR file. An operation is two bytes, b
// and arg. b&7 < 4 is an access (a write when b&8 is set, from requestor
// b>>4&1) to line arg, or, by b>>5 = 4..7, to one, two or minus one lines
// from the last, or the last again. Otherwise fill arg (modulo those held)
// returns, poisoned when b&7 == 7 and arg&3 == 0. reached counts the cases
// the run went through, by name.
func runTagStoreOps(t *testing.T, g uint8, ops []byte, reached map[string]int) {
	t.Helper()
	cfg := tagStoreGeometry(g)
	k := sim.NewKernel()
	c, err := New(k, cfg, stats.NewRegistry("t"), "c")
	if err != nil {
		t.Fatal(err)
	}
	o := newLineOracle(cfg)
	hm := &heldMem{}
	hm.port = mem.NewResponsePort("mem", hm, k)
	cpuPort := mem.NewRequestPort("cpu", sinkCPU{}, k)
	mem.Connect(cpuPort, c.CPUPort())
	mem.Connect(c.MemPort(), hm.port)

	span := 2*int64(len(o.lines)) + 4 // lines the addresses range over
	var lastLine int64
	step := 0
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("geometry %d (%d sets x %d ways, %s, %d MSHRs), step %d: %s", g,
			len(o.lines)/cfg.Assoc, cfg.Assoc, cfg.Prefetch, cfg.MSHRs, step, fmt.Sprintf(format, args...))
	}
	fill := func(j int, poisoned bool) {
		t.Helper()
		pkt := hm.fills[j]
		hm.fills = append(hm.fills[:j], hm.fills[j+1:]...)
		lineAddr := pkt.Addr
		set, _ := c.indexOf(lineAddr)
		ways := c.ways(set)
		if got, want := lineOf(ways[len(ways)-1]), o.victim(set); got.valid != want.valid || got.tag != want.tag {
			fail("fill of set %d evicts %+v, oracle %+v", set, got, *want)
		}
		if j != len(hm.fills) {
			reached["fill retired out of order"]++ // not the youngest: the MSHR file swaps
		}
		pkt.MakeResponse()
		pkt.Poisoned = poisoned
		wrote := len(hm.writes)
		if !hm.port.SendTimingResp(pkt) {
			fail("fill of %#x refused", uint64(lineAddr))
		}
		wb, hasWB := o.fill(lineAddr, poisoned)
		switch got := hm.writes[wrote:]; {
		case hasWB && (len(got) != 1 || got[0] != wb):
			fail("fill of %#x wrote back %#x, oracle %#x", uint64(lineAddr), got, uint64(wb))
		case !hasWB && len(got) != 0:
			fail("fill of %#x wrote back %#x, oracle nothing", uint64(lineAddr), got)
		}
		if hasWB {
			reached["writeback"]++
		}
		if poisoned {
			reached["poisoned fill"]++
		}
		for _, ack := range hm.acks {
			ack.MakeResponse()
			hm.port.SendTimingResp(ack)
		}
		hm.acks = hm.acks[:0]
	}
	check := func() {
		t.Helper()
		for set := range c.setMask + 1 {
			want := o.recency(set)
			for i, w := range c.ways(set) {
				if got := lineOf(w); got != want[i] {
					fail("way %d of set %d is %+v, oracle %+v", i, set, got, want[i])
				}
			}
		}
		if c.mshrsInUse != len(o.mshrs) {
			fail("%d MSHRs live, oracle %d", c.mshrsInUse, len(o.mshrs))
		}
		for i, want := range o.mshrs {
			m := &c.mshrs[i]
			write := false
			for _, p := range m.waiters {
				write = write || p.Cmd.IsWrite()
			}
			got := oracleMSHR{lineAddr: c.mshrLines[i], prefetch: m.prefetch, waiters: len(m.waiters), write: write}
			if got != want {
				fail("MSHR %d is %+v, oracle %+v", i, got, want)
			}
		}
		if err := checkMSHRIndex(c); err != nil {
			fail("%v", err)
		}
		if !slices.Equal(hm.sent, o.sent) {
			fail("fills sent %#x, oracle %#x", hm.sent, o.sent)
		}
	}

	for ; len(ops) >= 2; ops = ops[2:] {
		step++
		b, arg := ops[0], ops[1]
		switch kind := b & 7; {
		case kind <= 3:
			line := int64(arg) % span
			switch mode := b >> 5; {
			case mode == 4:
				line = lastLine + 1
			case mode == 5:
				line = lastLine + 2
			case mode == 6:
				line = max(lastLine-1, 0)
			case mode == 7:
				line = lastLine
			}
			lastLine = line
			addr := mem.Addr(line)*64 + mem.Addr(arg&7)*8
			write, requestor := b&8 != 0, int(b>>4&1)
			set, tag := c.indexOf(addr.AlignDown(64))
			prefetchedHit, reorders := false, false
			if i := c.lookup(set, tag); i >= 0 {
				prefetchedHit = write && c.tags[i]&tagPrefetched != 0
				reorders = i != int(set)*cfg.Assoc
			}
			var pkt *mem.Packet
			if write {
				pkt = mem.NewWrite(addr, 8, requestor, k.Now())
			} else {
				pkt = mem.NewRead(addr, 8, requestor, k.Now())
			}
			hits, merges, refused, misses := c.st.hits.Value(), c.st.mshrMerges.Value(), c.st.blockedOnMSHRs.Value(), c.st.misses.Value()
			accepted := cpuPort.SendTimingReq(pkt)
			var got verdict
			switch {
			case c.st.hits.Value() > hits:
				got = verdictHit
			case c.st.mshrMerges.Value() > merges:
				got = verdictMerge
			case c.st.blockedOnMSHRs.Value() > refused:
				got = verdictRefused
			case c.st.misses.Value() > misses:
				got = verdictMiss
			default:
				fail("access to %#x moved no counter", uint64(addr))
			}
			if accepted != (got != verdictRefused) {
				fail("access to %#x: %s, but accepted = %v", uint64(addr), got, accepted)
			}
			if want := o.access(addr, write, requestor); got != want {
				fail("%s to %#x: %s, oracle %s", pkt.Cmd, uint64(addr), got, want)
			}
			reached[got.String()]++
			if prefetchedHit {
				reached["write hit to a prefetched line"]++
			}
			if reorders {
				reached["hit behind the front of its set"]++
			}
		case len(hm.fills) > 0:
			fill(int(arg)%len(hm.fills), kind == 7 && arg&3 == 0)
		}
		k.RunUntil(k.Now() + cfg.HitLatency)
		check()
	}
	// Answer what is left, oldest first, and the cache must fall quiet.
	for step++; len(hm.fills) > 0; step++ {
		fill(0, false)
		check()
	}
	k.RunUntil(k.Now() + cfg.HitLatency)
	if !c.Quiescent() {
		fail("cache not quiescent once every fill returned")
	}
	reached["prefetch fill"] += o.prefetches
}

// randomTagStoreOps returns n operations for runTagStoreOps.
func randomTagStoreOps(seed int64, n int) []byte {
	ops := make([]byte, 2*n)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// TestTagStoreMatchesLineOracle holds the packed, recency-ordered tag store
// and the MSHR address index to the []line layout, its LRU ticks and the
// MSHR scan they replaced, on every geometry runTagStoreOps decodes (1, 2
// and 8 ways; 1 and 16 sets; no, next-line and stride prefetching; 2 to 4
// MSHRs), and checks the runs reached every case the referee is there for.
func TestTagStoreMatchesLineOracle(t *testing.T) {
	reached := map[string]int{}
	for g := 0; g < 54; g++ {
		for seed := int64(0); seed < 4; seed++ {
			runTagStoreOps(t, uint8(g), randomTagStoreOps(seed*54+int64(g), 300), reached)
		}
	}
	t.Log(reached)
	for _, name := range []string{"hit", "merge", "refused", "new miss", "write hit to a prefetched line",
		"hit behind the front of its set", "prefetch fill", "poisoned fill", "writeback", "fill retired out of order"} {
		if reached[name] < 100 {
			t.Errorf("only %d cases of %s", reached[name], name)
		}
	}
}

func FuzzTagStoreMatchesLineOracle(f *testing.F) {
	for g := uint8(0); g < 54; g += 7 {
		f.Add(g, randomTagStoreOps(int64(g), 200))
	}
	f.Fuzz(func(t *testing.T, g uint8, ops []byte) { runTagStoreOps(t, g, ops, map[string]int{}) })
}
