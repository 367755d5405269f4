package dram

import (
	"testing"

	"repro/internal/mem"
)

// FuzzDecode: for any address, Decode must produce in-bounds coordinates
// and Encode must invert it (modulo capacity wrapping).
func FuzzDecode(f *testing.F) {
	f.Add(uint64(0), uint8(0), uint8(1))
	f.Add(uint64(0xdeadbeef), uint8(1), uint8(2))
	f.Add(uint64(1)<<40, uint8(2), uint8(4))
	f.Fuzz(func(t *testing.T, addr uint64, mappingRaw, channelsRaw uint8) {
		mapping := Mapping(int(mappingRaw) % 3)
		channels := 1 << (int(channelsRaw) % 3) // 1, 2 or 4
		for _, spec := range []Spec{DDR3_1600_x64(), WideIO_200_x128(), DDR3_1600_x64_2R()} {
			d, err := NewDecoder(spec.Org, mapping, channels)
			if err != nil {
				t.Fatal(err)
			}
			// Clamp the address inside the channel group's capacity so the
			// encode inversion is exact (beyond it, rows wrap by design).
			capacity := uint64(spec.Org.Banks()) * spec.Org.RowsPerBank * spec.Org.RowBufferBytes * uint64(channels)
			a := mem.Addr(addr % capacity)
			c := d.Decode(a)
			if c.Rank >= spec.Org.RanksPerChannel || c.Bank >= spec.Org.BanksPerRank {
				t.Fatalf("%s/%s: out-of-range coordinate %+v", spec.Name, mapping, c)
			}
			if c.Row >= spec.Org.RowsPerBank || c.Col >= spec.Org.BurstsPerRow() {
				t.Fatalf("%s/%s: out-of-range row/col %+v", spec.Name, mapping, c)
			}
			ch := d.Channel(a)
			if ch < 0 || ch >= channels {
				t.Fatalf("%s/%s: channel %d out of range", spec.Name, mapping, ch)
			}
			// Burst-aligned addresses invert exactly.
			aligned := a.AlignDown(spec.Org.BurstBytes())
			c2 := d.Decode(aligned)
			if got := d.Encode(c2, d.Channel(aligned)); got != aligned {
				t.Fatalf("%s/%s: encode(decode(%#x)) = %#x", spec.Name, mapping, uint64(aligned), uint64(got))
			}
		}
	})
}
