package dram

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

func TestAllSpecsValidate(t *testing.T) {
	for _, s := range Presets() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestBurstGeometry(t *testing.T) {
	cases := []struct {
		spec       Spec
		burstBytes uint64
		perRow     uint64
	}{
		{DDR3_1600_x64(), 64, 16},
		{LPDDR3_1600_x32(), 32, 32},
		{WideIO_200_x128(), 64, 64},
		{DDR3_1333_8x8(), 64, 128},
	}
	for _, c := range cases {
		if got := c.spec.Org.BurstBytes(); got != c.burstBytes {
			t.Errorf("%s: burst bytes = %d, want %d", c.spec.Name, got, c.burstBytes)
		}
		if got := c.spec.Org.BurstsPerRow(); got != c.perRow {
			t.Errorf("%s: bursts/row = %d, want %d", c.spec.Name, got, c.perRow)
		}
	}
}

// The paper's case study picks the three Table IV configurations so that all
// offer 12.8 GB/s aggregate: 1x DDR3, 2x LPDDR3, 4x WideIO.
func TestPaperAggregateBandwidth(t *testing.T) {
	cases := []struct {
		spec     Spec
		channels float64
	}{
		{DDR3_1600_x64(), 1},
		{LPDDR3_1600_x32(), 2},
		{WideIO_200_x128(), 4},
	}
	for _, c := range cases {
		agg := c.spec.PeakBandwidth() * c.channels
		if math.Abs(agg-12.8e9) > 1e6 {
			t.Errorf("%s x%v: aggregate = %.3g B/s, want 12.8e9", c.spec.Name, c.channels, agg)
		}
	}
}

func TestOrganizationValidateRejects(t *testing.T) {
	good := DDR3_1600_x64().Org
	mutations := []func(*Organization){
		func(o *Organization) { o.BusWidthBits = 0 },
		func(o *Organization) { o.BusWidthBits = 60 },
		func(o *Organization) { o.BurstLength = 0 },
		func(o *Organization) { o.RanksPerChannel = 3 },
		func(o *Organization) { o.BanksPerRank = 6 },
		func(o *Organization) { o.RowBufferBytes = 0 },
		func(o *Organization) { o.RowBufferBytes = 1000 },
		func(o *Organization) { o.RowsPerBank = 0 },
		func(o *Organization) { o.ActivationLimit = -1 },
	}
	for i, mut := range mutations {
		o := good
		mut(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("mutation %d: invalid organisation accepted", i)
		}
	}
}

func TestTimingValidateRejects(t *testing.T) {
	good := DDR3_1600_x64().Timing
	mutations := []func(*Timing){
		func(tm *Timing) { tm.TCK = 0 },
		func(tm *Timing) { tm.TRCD = -1 },
		func(tm *Timing) { tm.TBURST = 0 },
		func(tm *Timing) { tm.TWTR = -5 },
		func(tm *Timing) { tm.TRAS = tm.TRCD - 1 },
	}
	for i, mut := range mutations {
		tm := good
		mut(&tm)
		if err := tm.Validate(); err == nil {
			t.Errorf("mutation %d: invalid timing accepted", i)
		}
	}
}

func TestPeakBandwidth(t *testing.T) {
	// DDR3-1600 x64: 64 bytes per 5 ns = 12.8 GB/s.
	got := DDR3_1600_x64().PeakBandwidth()
	if math.Abs(got-12.8e9) > 1e6 {
		t.Fatalf("peak = %v", got)
	}
	// WideIO: 64 bytes per 20 ns = 3.2 GB/s.
	got = WideIO_200_x128().PeakBandwidth()
	if math.Abs(got-3.2e9) > 1e6 {
		t.Fatalf("WideIO peak = %v", got)
	}
}

func TestMappingString(t *testing.T) {
	for _, m := range []Mapping{RoRaBaCoCh, RoRaBaChCo, RoCoRaBaCh} {
		name := m.String()
		back, err := ParseMapping(name)
		if err != nil || back != m {
			t.Errorf("round trip of %v failed: %v %v", m, back, err)
		}
	}
	if _, err := ParseMapping("bogus"); err == nil {
		t.Error("ParseMapping accepted bogus name")
	}
}

func TestDecoderChannelInterleave(t *testing.T) {
	org := DDR3_1600_x64().Org
	d, err := NewDecoder(org, RoRaBaCoCh, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.InterleaveBytes() != 64 {
		t.Fatalf("interleave = %d", d.InterleaveBytes())
	}
	// Sequential bursts rotate channels.
	for i := 0; i < 16; i++ {
		addr := mem.Addr(i * 64)
		if got := d.Channel(addr); got != i%4 {
			t.Fatalf("channel(%#x) = %d, want %d", uint64(addr), got, i%4)
		}
	}
	// Row-granular mapping interleaves at the row buffer size.
	d2, _ := NewDecoder(org, RoRaBaChCo, 4)
	if d2.InterleaveBytes() != org.RowBufferBytes {
		t.Fatalf("RoRaBaChCo interleave = %d", d2.InterleaveBytes())
	}
	if d2.Channel(0) != 0 || d2.Channel(mem.Addr(int(org.RowBufferBytes))) != 1 {
		t.Fatal("row-granular channel selection wrong")
	}
}

func TestDecoderSequentialRoRaBaCoCh(t *testing.T) {
	org := DDR3_1600_x64().Org
	d, _ := NewDecoder(org, RoRaBaCoCh, 1)
	// Sequential bursts should walk the columns of one row in one bank.
	first := d.Decode(0)
	for i := uint64(1); i < org.BurstsPerRow(); i++ {
		c := d.Decode(mem.Addr(int(i * org.BurstBytes())))
		if c.Bank != first.Bank || c.Row != first.Row || c.Rank != first.Rank {
			t.Fatalf("burst %d left the row: %+v vs %+v", i, c, first)
		}
		if c.Col != i {
			t.Fatalf("burst %d: col = %d", i, c.Col)
		}
	}
	// The next burst after a full row moves to the next bank.
	c := d.Decode(mem.Addr(int(org.RowBufferBytes)))
	if c.Bank != first.Bank+1 || c.Row != first.Row {
		t.Fatalf("row crossing: %+v", c)
	}
}

func TestDecoderSequentialRoCoRaBaCh(t *testing.T) {
	org := DDR3_1600_x64().Org
	d, _ := NewDecoder(org, RoCoRaBaCh, 1)
	// Sequential bursts should walk banks first (maximal parallelism).
	for i := 0; i < org.BanksPerRank; i++ {
		c := d.Decode(mem.Addr(i * int(org.BurstBytes())))
		if c.Bank != i {
			t.Fatalf("burst %d: bank = %d", i, c.Bank)
		}
		if c.Row != 0 || c.Col != 0 {
			t.Fatalf("burst %d: row/col = %d/%d", i, c.Row, c.Col)
		}
	}
	// After all banks, the column advances.
	c := d.Decode(mem.Addr(org.BanksPerRank * int(org.BurstBytes())))
	if c.Bank != 0 || c.Col != 1 {
		t.Fatalf("wrap: %+v", c)
	}
}

func TestDecoderRejectsBadChannels(t *testing.T) {
	org := DDR3_1600_x64().Org
	if _, err := NewDecoder(org, RoRaBaCoCh, 0); err == nil {
		t.Error("accepted 0 channels")
	}
	if _, err := NewDecoder(org, RoRaBaCoCh, 3); err == nil {
		t.Error("accepted non-power-of-two channels")
	}
	if _, err := NewDecoder(org, Mapping(7), 1); err == nil {
		t.Error("accepted an unknown mapping")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, spec := range []Spec{DDR3_1600_x64(), WideIO_200_x128(), DDR3_1333_8x8()} {
		for _, m := range []Mapping{RoRaBaCoCh, RoRaBaChCo, RoCoRaBaCh} {
			for _, channels := range []int{1, 2, 4} {
				d, err := NewDecoder(spec.Org, m, channels)
				if err != nil {
					t.Fatal(err)
				}
				coords := []Coord{
					{Rank: 0, Bank: 0, Row: 0, Col: 0},
					{Rank: 0, Bank: spec.Org.BanksPerRank - 1, Row: 5, Col: 3},
					{Rank: spec.Org.RanksPerChannel - 1, Bank: 1, Row: spec.Org.RowsPerBank - 1, Col: spec.Org.BurstsPerRow() - 1},
				}
				for _, want := range coords {
					for ch := 0; ch < channels; ch++ {
						addr := d.Encode(want, ch)
						if got := d.Decode(addr); got != want {
							t.Fatalf("%s/%s/%dch: decode(encode(%+v)) = %+v", spec.Name, m, channels, want, got)
						}
						if got := d.Channel(addr); got != ch {
							t.Fatalf("%s/%s/%dch: channel = %d, want %d", spec.Name, m, channels, got, ch)
						}
					}
				}
			}
		}
	}
}

// decodeByDivision is the decode the shift-and-mask form replaced: the same
// field order spelled as divisions and remainders by the (runtime) field
// sizes. It makes no power-of-two assumption, so it referees the layout
// NewDecoder precomputes.
func decodeByDivision(d *Decoder, a mem.Addr) Coord {
	org := d.Org
	colsPerRow := org.BurstsPerRow()
	addr := uint64(a) / org.BurstBytes()
	take := func(n uint64) uint64 {
		v := addr % n
		addr /= n
		return v
	}
	var c Coord
	switch d.Mapping {
	case RoRaBaCoCh:
		take(uint64(d.Channels))
		c.Col = take(colsPerRow)
		c.Bank = int(take(uint64(org.BanksPerRank)))
		c.Rank = int(take(uint64(org.RanksPerChannel)))
	case RoRaBaChCo:
		c.Col = take(colsPerRow)
		take(uint64(d.Channels))
		c.Bank = int(take(uint64(org.BanksPerRank)))
		c.Rank = int(take(uint64(org.RanksPerChannel)))
	case RoCoRaBaCh:
		take(uint64(d.Channels))
		c.Bank = int(take(uint64(org.BanksPerRank)))
		c.Rank = int(take(uint64(org.RanksPerChannel)))
		c.Col = take(colsPerRow)
	}
	c.Row = addr % org.RowsPerBank
	if d.XORBankRow {
		c.Bank ^= int(c.Row) & (org.BanksPerRank - 1)
	}
	return c
}

// Over every preset, mapping, bank-hash setting and channel count: Decode
// agrees with the division form on arbitrary addresses (beyond capacity
// too, where rows wrap), Channel with its division form, and Decode inverts
// Encode on every in-range coordinate drawn.
func TestDecodeMatchesDivisionFormAndInvertsEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, spec := range Presets() {
		org := spec.Org
		for _, m := range []Mapping{RoRaBaCoCh, RoRaBaChCo, RoCoRaBaCh} {
			for _, hash := range []bool{false, true} {
				for _, channels := range []int{1, 2, 4} {
					d, err := NewDecoder(org, m, channels)
					if err != nil {
						t.Fatal(err)
					}
					d.XORBankRow = hash
					name := fmt.Sprintf("%s/%s/hash=%v/%dch", spec.Name, m, hash, channels)
					for i := 0; i < 200; i++ {
						a := mem.Addr(rng.Uint64() >> uint(rng.Intn(40)))
						if got, want := d.Decode(a), decodeByDivision(&d, a); got != want {
							t.Fatalf("%s: Decode(%#x) = %+v, division form %+v", name, uint64(a), got, want)
						}
						if got, want := d.Channel(a), int(uint64(a)/d.InterleaveBytes()%uint64(channels)); got != want {
							t.Fatalf("%s: Channel(%#x) = %d, division form %d", name, uint64(a), got, want)
						}
						want := Coord{
							Rank: rng.Intn(org.RanksPerChannel), Bank: rng.Intn(org.BanksPerRank),
							Row: rng.Uint64() % org.RowsPerBank, Col: rng.Uint64() % org.BurstsPerRow(),
						}
						ch := rng.Intn(channels)
						addr := d.Encode(want, ch)
						if got := d.Decode(addr); got != want || d.Channel(addr) != ch {
							t.Fatalf("%s: Decode(Encode(%+v, ch %d)) = %+v on channel %d", name, want, ch, got, d.Channel(addr))
						}
					}
				}
			}
		}
	}
}

func TestTimingValuesMatchPaperTableIV(t *testing.T) {
	ddr3 := DDR3_1600_x64().Timing
	if ddr3.TRCD != 13750*sim.Picosecond || ddr3.TRAS != 35*sim.Nanosecond ||
		ddr3.TBURST != 5*sim.Nanosecond || ddr3.TXAW != 40*sim.Nanosecond {
		t.Error("DDR3 Table IV timings drifted")
	}
	lp := LPDDR3_1600_x32().Timing
	if lp.TRCD != 15*sim.Nanosecond || lp.TRFC != 130*sim.Nanosecond || lp.TRRD != 10*sim.Nanosecond {
		t.Error("LPDDR3 Table IV timings drifted")
	}
	wio := WideIO_200_x128().Timing
	if wio.TRCD != 18*sim.Nanosecond || wio.TBURST != 20*sim.Nanosecond || wio.TWTR != 15*sim.Nanosecond {
		t.Error("WideIO Table IV timings drifted")
	}
	if DDR3_1600_x64().Org.ActivationLimit != 4 || WideIO_200_x128().Org.ActivationLimit != 2 {
		t.Error("Table IV activation limits drifted")
	}
}

func TestXORBankHashRoundTrip(t *testing.T) {
	d, _ := NewDecoder(DDR3_1600_x64().Org, RoRaBaCoCh, 1)
	d.XORBankRow = true
	for _, want := range []Coord{
		{Bank: 0, Row: 0}, {Bank: 3, Row: 5, Col: 7}, {Bank: 7, Row: 12345, Col: 15},
	} {
		addr := d.Encode(want, 0)
		if got := d.Decode(addr); got != want {
			t.Fatalf("hashed decode(encode(%+v)) = %+v", want, got)
		}
	}
}

// The hash's purpose: a same-bank row-stride (the pathological pattern) maps
// to rotating banks when hashing is enabled.
func TestXORBankHashSpreadsConflicts(t *testing.T) {
	org := DDR3_1600_x64().Org
	plain, _ := NewDecoder(org, RoRaBaCoCh, 1)
	hashed := plain
	hashed.XORBankRow = true

	// Addresses one full row set apart: same bank, consecutive rows.
	strideBytes := org.RowBufferBytes * uint64(org.Banks())
	plainBanks := map[int]bool{}
	hashedBanks := map[int]bool{}
	for i := 0; i < org.BanksPerRank; i++ {
		a := mem.Addr(uint64(i) * strideBytes)
		plainBanks[plain.Decode(a).Bank] = true
		hashedBanks[hashed.Decode(a).Bank] = true
	}
	if len(plainBanks) != 1 {
		t.Fatalf("plain mapping spread the conflict stride: %v", plainBanks)
	}
	if len(hashedBanks) != org.BanksPerRank {
		t.Fatalf("hash did not spread the stride: %v", hashedBanks)
	}
}
