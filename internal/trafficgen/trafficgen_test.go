package trafficgen

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestLinearPattern(t *testing.T) {
	l := &Linear{Start: 0, End: 256, Step: 64, ReadPercent: 100}
	var got []mem.Addr
	for i := 0; i < 6; i++ {
		a, isRead := l.Next()
		if !isRead {
			t.Fatal("100% reads produced a write")
		}
		got = append(got, a)
	}
	want := []mem.Addr{0, 64, 128, 192, 0, 64}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence = %v", got)
		}
	}
}

func TestRandomPatternBounds(t *testing.T) {
	r := &Random{Start: 0x1000, End: 0x2000, Align: 64, ReadPercent: 0, Seed: 7}
	for i := 0; i < 1000; i++ {
		a, isRead := r.Next()
		if isRead {
			t.Fatal("0% reads produced a read")
		}
		if a < 0x1000 || a >= 0x2000 {
			t.Fatalf("address %#x out of bounds", uint64(a))
		}
		if uint64(a)%64 != 0 {
			t.Fatalf("address %#x unaligned", uint64(a))
		}
	}
}

func TestMixRatio(t *testing.T) {
	l := &Linear{Start: 0, End: 1 << 20, Step: 64, ReadPercent: 50, Seed: 3}
	reads := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if _, isRead := l.Next(); isRead {
			reads++
		}
	}
	if reads < n*45/100 || reads > n*55/100 {
		t.Fatalf("read share = %d/%d, want ~50%%", reads, n)
	}
}

// The bursty pattern issues BurstLen back-to-back requests, then a gap in
// [OffTime/2, 3*OffTime/2).
func TestBurstyPattern(t *testing.T) {
	mk := func() *Bursty {
		return &Bursty{Start: 0, End: 1 << 16, Align: 64, ReadPercent: 50,
			BurstLen: 4, OffTime: 500 * sim.Nanosecond, Seed: 11}
	}
	b := mk()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		a, _ := b.Next()
		if a >= 1<<16 || uint64(a)%64 != 0 {
			t.Fatalf("address %#x out of bounds or unaligned", uint64(a))
		}
		gap := b.Gap()
		if (i+1)%4 == 0 {
			if gap < 250*sim.Nanosecond || gap >= 750*sim.Nanosecond {
				t.Fatalf("gap %s outside [OffTime/2, 3*OffTime/2)", gap)
			}
		} else if gap != 0 {
			t.Fatalf("gap %s inside a burst", gap)
		}
	}

	for _, bad := range []*Bursty{
		{Start: 0, End: 0, Align: 64, BurstLen: 4},
		{Start: 0, End: 1 << 16, Align: 0, BurstLen: 4},
		{Start: 0, End: 1 << 16, Align: 64, BurstLen: 0},
		{Start: 0, End: 1 << 16, Align: 64, BurstLen: 4, OffTime: -1},
	} {
		if bad.Validate() == nil {
			t.Fatalf("invalid bursty pattern %+v accepted", bad)
		}
	}
}

func TestDRAMAwareValidate(t *testing.T) {
	dec, _ := dram.NewDecoder(dram.DDR3_1600_x64().Org, dram.RoRaBaCoCh, 1)
	good := &DRAMAware{Decoder: dec, StrideBursts: 4, Banks: 4}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*DRAMAware{
		{Decoder: dec, StrideBursts: 0, Banks: 4},
		{Decoder: dec, StrideBursts: 17, Banks: 4}, // 16 bursts per row max
		{Decoder: dec, StrideBursts: 4, Banks: 0},
		{Decoder: dec, StrideBursts: 4, Banks: 9},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("accepted %+v", bad)
		}
	}
}

// The DRAM-aware pattern's whole point: stride S over B banks produces runs
// of S same-row bursts rotating over B banks.
func TestDRAMAwareShape(t *testing.T) {
	org := dram.DDR3_1600_x64().Org
	dec, _ := dram.NewDecoder(org, dram.RoRaBaCoCh, 1)
	p := &DRAMAware{Decoder: dec, StrideBursts: 4, Banks: 2, ReadPercent: 100}
	type key struct {
		bank int
		row  uint64
	}
	var seq []key
	for i := 0; i < 16; i++ {
		a, _ := p.Next()
		c := dec.Decode(a)
		seq = append(seq, key{c.Bank, c.Row})
	}
	// First 4 in bank 0, next 4 in bank 1, then a fresh row: strides always
	// open new rows, so the stride length dictates the hit rate.
	for i, k := range seq {
		wantBank := (i / 4) % 2
		wantRow := uint64(i / 8)
		if k.bank != wantBank || k.row != wantRow {
			t.Fatalf("access %d in bank %d row %d, want bank %d row %d (seq %v)",
				i, k.bank, k.row, wantBank, wantRow, seq)
		}
	}
}

// After exhausting a row's columns the pattern advances the row.
func TestDRAMAwareRowAdvance(t *testing.T) {
	org := dram.DDR3_1600_x64().Org // 16 bursts per row
	dec, _ := dram.NewDecoder(org, dram.RoRaBaCoCh, 1)
	p := &DRAMAware{Decoder: dec, StrideBursts: 16, Banks: 1, ReadPercent: 100}
	for i := 0; i < 16; i++ {
		p.Next()
	}
	a, _ := p.Next()
	c := dec.Decode(a)
	if c.Row != 1 || c.Col != 0 {
		t.Fatalf("after full row: %+v, want row 1 col 0", c)
	}
}

func TestStridedPattern(t *testing.T) {
	s := &Strided{Start: 0x100, StrideBytes: 128, WrapBytes: 384, ReadPercent: 100}
	var got []mem.Addr
	for i := 0; i < 5; i++ {
		a, _ := s.Next()
		got = append(got, a)
	}
	want := []mem.Addr{0x100, 0x180, 0x200, 0x100, 0x180}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence = %#x", got)
		}
	}
}

// testSystem wires a generator to a real event-based controller.
func testSystem(t *testing.T, gcfg Config, pattern Pattern, mutate func(*core.Config)) (*sim.Kernel, *Generator, *core.Controller) {
	t.Helper()
	k := sim.NewKernel()
	reg := stats.NewRegistry("t")
	ccfg := core.DefaultConfig(dram.DDR3_1600_x64())
	ccfg.FrontendLatency = 0
	ccfg.BackendLatency = 0
	if mutate != nil {
		mutate(&ccfg)
	}
	ctrl, err := core.NewController(k, ccfg, reg, "mc")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := New(k, gcfg, pattern, reg, "gen")
	if err != nil {
		t.Fatal(err)
	}
	mem.Connect(gen.Port(), ctrl.Port())
	return k, gen, ctrl
}

func runUntilDone(k *sim.Kernel, gen *Generator, ctrl *core.Controller, limit sim.Tick) {
	deadline := k.Now() + limit
	for k.Now() < deadline {
		k.RunUntil(k.Now() + sim.Microsecond)
		if gen.Done() {
			if ctrl != nil && !ctrl.Quiescent() {
				ctrl.Drain()
				continue
			}
			return
		}
	}
}

func TestGeneratorCompletesCount(t *testing.T) {
	gcfg := Config{RequestBytes: 64, MaxOutstanding: 8, Count: 100}
	pattern := &Linear{Start: 0, End: 1 << 20, Step: 64, ReadPercent: 100}
	k, gen, ctrl := testSystem(t, gcfg, pattern, nil)
	gen.Start()
	runUntilDone(k, gen, ctrl, 100*sim.Microsecond)
	if !gen.Done() {
		t.Fatalf("generator not done: issued=%d outstanding=%d", gen.Issued(), gen.Outstanding())
	}
	if gen.ReadLatency().Count() != 100 {
		t.Fatalf("latency samples = %d", gen.ReadLatency().Count())
	}
	if gen.reads.Value() != 100 {
		t.Fatalf("reads = %v", gen.reads.Value())
	}
}

func TestGeneratorRespectsOutstandingLimit(t *testing.T) {
	gcfg := Config{RequestBytes: 64, MaxOutstanding: 2, Count: 50}
	pattern := &Linear{Start: 0, End: 1 << 20, Step: 64, ReadPercent: 100}
	k, gen, ctrl := testSystem(t, gcfg, pattern, nil)
	gen.Start()
	for i := 0; i < 1000 && !gen.Done(); i++ {
		k.RunUntil(k.Now() + 100*sim.Nanosecond)
		if gen.Outstanding() > 2 {
			t.Fatalf("outstanding = %d > limit", gen.Outstanding())
		}
	}
	_ = ctrl
	if !gen.Done() {
		t.Fatal("did not finish")
	}
}

func TestGeneratorInterTransactionSpacing(t *testing.T) {
	gcfg := Config{RequestBytes: 64, MaxOutstanding: 16, Count: 10, InterTransaction: 100 * sim.Nanosecond}
	pattern := &Linear{Start: 0, End: 1 << 20, Step: 64, ReadPercent: 100}
	k, gen, ctrl := testSystem(t, gcfg, pattern, nil)
	gen.Start()
	runUntilDone(k, gen, ctrl, 100*sim.Microsecond)
	if !gen.Done() {
		t.Fatal("did not finish")
	}
	// 10 requests spaced 100 ns: the run must span at least 900 ns.
	if k.Now() < 900*sim.Nanosecond {
		t.Fatalf("finished at %s, too fast for the configured spacing", k.Now())
	}
}

// Back pressure: a tiny controller queue forces retries but everything still
// completes.
func TestGeneratorBackPressure(t *testing.T) {
	gcfg := Config{RequestBytes: 64, MaxOutstanding: 32, Count: 200}
	pattern := &Linear{Start: 0, End: 1 << 20, Step: 64, ReadPercent: 100}
	k, gen, ctrl := testSystem(t, gcfg, pattern, func(c *core.Config) {
		c.ReadBufferSize = 2
	})
	gen.Start()
	runUntilDone(k, gen, ctrl, sim.Millisecond)
	if !gen.Done() {
		t.Fatalf("not done: issued=%d outstanding=%d", gen.Issued(), gen.Outstanding())
	}
	if gen.Refusals.Value() == 0 {
		t.Fatal("expected back-pressure retries with a 2-entry read buffer")
	}
}

// The DRAM-aware generator delivers its promised row-hit rate: stride 16
// (full row) gives near-perfect hits; stride 1 over 8 banks gives none.
func TestDRAMAwareHitRateAtController(t *testing.T) {
	org := dram.DDR3_1600_x64().Org
	dec, _ := dram.NewDecoder(org, dram.RoRaBaCoCh, 1)

	run := func(stride uint64, banks int) float64 {
		p := &DRAMAware{Decoder: dec, StrideBursts: stride, Banks: banks, ReadPercent: 100}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		gcfg := Config{RequestBytes: 64, MaxOutstanding: 16, Count: 512}
		k, gen, ctrl := testSystem(t, gcfg, p, nil)
		gen.Start()
		runUntilDone(k, gen, ctrl, sim.Millisecond)
		if !gen.Done() {
			t.Fatal("not done")
		}
		return ctrl.RowHitRate()
	}

	fullRow := run(16, 1)
	if fullRow < 0.9 {
		t.Fatalf("stride 16 hit rate = %v, want >0.9", fullRow)
	}
	interleaved := run(1, 8)
	if interleaved > 0.05 {
		t.Fatalf("stride 1 x 8 banks hit rate = %v, want ~0", interleaved)
	}
	mid := run(4, 4)
	if !(interleaved < mid && mid < fullRow) {
		t.Fatalf("hit rate not monotone in stride: %v %v %v", interleaved, mid, fullRow)
	}
}

func TestGeneratorConfigValidate(t *testing.T) {
	bad := []Config{
		{RequestBytes: 0, MaxOutstanding: 1},
		{RequestBytes: 64, MaxOutstanding: 0},
		{RequestBytes: 64, MaxOutstanding: 1, InterTransaction: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestTraceParseFormatRoundTrip(t *testing.T) {
	in := `# comment
0 r 0x1000 64

500 w 0x2040 32
1500 read 0x1000 64
`
	recs, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[1].IsRead || recs[1].Addr != 0x2040 || recs[1].Size != 32 || recs[1].Tick != 500 {
		t.Fatalf("record 1 = %+v", recs[1])
	}
	var sb strings.Builder
	if err := FormatTrace(&sb, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if back[i] != recs[i] {
			t.Fatalf("round trip diverged at %d: %+v vs %+v", i, back[i], recs[i])
		}
	}
}

func TestTraceParseErrors(t *testing.T) {
	bad := []string{
		"0 r 0x10",                   // missing field
		"x r 0x10 64",                // bad tick
		"0 z 0x10 64",                // bad cmd
		"0 r gg 64",                  // bad addr
		"0 r 0x10 0",                 // zero size
		"100 r 0x10 64\n0 r 0x10 64", // unsorted
	}
	for i, in := range bad {
		if _, err := ParseTrace(strings.NewReader(in)); err == nil {
			t.Errorf("trace %d accepted", i)
		}
	}
}

func TestTracePlayerAgainstController(t *testing.T) {
	recs := []TraceRecord{
		{Tick: 0, IsRead: true, Addr: 0x0, Size: 64},
		{Tick: 10 * sim.Nanosecond, IsRead: false, Addr: 0x40, Size: 64},
		{Tick: 200 * sim.Nanosecond, IsRead: true, Addr: 0x40, Size: 64},
	}
	k := sim.NewKernel()
	reg := stats.NewRegistry("t")
	ccfg := core.DefaultConfig(dram.DDR3_1600_x64())
	ctrl, err := core.NewController(k, ccfg, reg, "mc")
	if err != nil {
		t.Fatal(err)
	}
	p := NewTracePlayer(k, recs, 0)
	mem.Connect(p.Port(), ctrl.Port())
	p.Start()
	for i := 0; i < 100 && !p.Done(); i++ {
		k.RunUntil(k.Now() + sim.Microsecond)
	}
	// Done holds once every record was issued and answered.
	if !p.Done() || p.Issued() != 3 {
		t.Fatalf("player done=%v issued=%d", p.Done(), p.Issued())
	}
}

// Back pressure on the player: 200 reads due at tick 0 into a 2-entry read
// buffer are refused and resent, all complete, and a monitor in front of the
// controller sees them in record order.
func TestTracePlayerBackPressure(t *testing.T) {
	recs := make([]TraceRecord, 200)
	for i := range recs {
		recs[i] = TraceRecord{IsRead: true, Addr: mem.Addr(i * 64), Size: 64}
	}
	k := sim.NewKernel()
	reg := stats.NewRegistry("t")
	ccfg := core.DefaultConfig(dram.DDR3_1600_x64())
	ccfg.ReadBufferSize = 2
	ctrl, err := core.NewController(k, ccfg, reg, "mc")
	if err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor(k, reg, "mon")
	p := NewTracePlayer(k, recs, 0)
	mem.Connect(p.Port(), mon.CPUPort())
	mem.Connect(mon.MemPort(), ctrl.Port())
	p.Start()
	for i := 0; i < 1000 && !p.Done(); i++ {
		k.RunUntil(k.Now() + sim.Microsecond)
	}
	if !p.Done() {
		t.Fatalf("player not done: issued=%d outstanding=%d", p.Issued(), p.Outstanding())
	}
	got := mon.Trace()
	if len(got) != len(recs) {
		t.Fatalf("monitor saw %d requests, want %d", len(got), len(recs))
	}
	for i, r := range got {
		if r.Addr != recs[i].Addr || !r.IsRead {
			t.Fatalf("request %d reached the controller as %+v, want record %+v", i, r, recs[i])
		}
	}
	if last := got[len(got)-1].Tick; last == 0 {
		t.Fatal("every request passed at tick 0: the read buffer never refused")
	}
}

// Property: the DRAM-aware pattern only ever touches the configured banks
// and its addresses decode back inside the organisation.
func TestDRAMAwareBankConfinementProperty(t *testing.T) {
	org := dram.DDR3_1600_x64().Org
	prop := func(strideRaw, banksRaw uint8, mappingRaw uint8) bool {
		mapping := dram.Mapping(int(mappingRaw) % 3)
		dec, err := dram.NewDecoder(org, mapping, 1)
		if err != nil {
			return false
		}
		stride := uint64(strideRaw)%org.BurstsPerRow() + 1
		banks := int(banksRaw)%org.BanksPerRank + 1
		p := &DRAMAware{Decoder: dec, StrideBursts: stride, Banks: banks, ReadPercent: 50, Seed: 1}
		if p.Validate() != nil {
			return false
		}
		for i := 0; i < 500; i++ {
			a, _ := p.Next()
			c := dec.Decode(a)
			if c.Bank >= banks || c.Rank != 0 {
				return false
			}
			if c.Row >= org.RowsPerBank || c.Col >= org.BurstsPerRow() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
