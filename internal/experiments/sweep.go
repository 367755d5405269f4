package experiments

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/dram"
	"repro/internal/system"
)

// sweep is one bandwidth sweep (Figs. 3-5): a DRAM-aware traffic pattern swept
// over bank count and stride, run on both models.
type sweep struct {
	figure  int
	name    string
	readPct int
	closed  bool
	mapping dram.Mapping
}

// sweeps are the paper's Figure 3 (open page, 100% reads, RoRaBaCoCh: the
// mapping that maximises page hits for sequential addresses), Figure 4 (the
// same with a 1:1 read/write mix) and Figure 5 (closed page, 100% writes,
// RoCoRaBaCh: the mapping that maximises bank parallelism).
var sweeps = []sweep{
	{3, "Fig3: bus utilisation, open page, reads", 100, false, dram.RoRaBaCoCh},
	{4, "Fig4: bus utilisation, open page, 1:1 mix", 50, false, dram.RoRaBaCoCh},
	{5, "Fig5: bus utilisation, closed page, writes", 0, true, dram.RoCoRaBaCh},
}

// sweepDevice is the sweeps' own device, whose geometry sets their axes.
var sweepDevice = dram.DDR3_1333_8x8()

// axes returns the sweep's strides, log-spaced from one burst to a row of
// sweepDevice and clamped to a row of spec, and its bank counts, 1 to
// sweepDevice's banks and clamped to spec's.
func axes(spec dram.Spec) (strides []uint64, banks []int) {
	for s := uint64(1); s <= min(sweepDevice.Org.BurstsPerRow(), spec.Org.BurstsPerRow()); s *= 2 {
		strides = append(strides, s)
	}
	for b := 1; b <= min(sweepDevice.Org.BanksPerRank, spec.Org.BanksPerRank); b *= 2 {
		banks = append(banks, b)
	}
	return strides, banks
}

// point is the measurement of one model at one (stride, banks) cell of the
// sweep: DRAM-aware traffic from one generator, 32 requests outstanding per
// channel.
func (g sweep) point(kind system.Kind, s Setup, spec dram.Spec, stride uint64, banks int) (Point, error) {
	channels := max(s.Channels, 1)
	pattern, err := dramAware(spec, g.mapping, channels, stride, banks, g.readPct, s.Seed)
	if err != nil {
		return Point{}, err
	}
	p := matched(fmt.Sprintf("fig%d stride=%d banks=%d channels=%d", g.figure, stride, banks, channels),
		spec, g.mapping, g.closed, channels, s.N, pattern)
	p.Kind = kind
	p.Gen.MaxOutstanding *= channels
	return p, nil
}

// SweepPoint is Figure figure's (3, 4 or 5) point, at the study's defaults,
// for one model at one (stride, banks) cell.
func SweepPoint(figure int, kind system.Kind, stride uint64, banks int) (Point, error) {
	return sweeps[figure-3].point(kind, Studies[figure-3].Setup(), sweepDevice, stride, banks)
}

// study measures each (stride, banks) cell on both models, banks outer and
// strides inner; a cell's utilisation is the channels' average. It prints
// them as a grid, a line per stride.
func (g sweep) study() *Study {
	page := map[bool]string{false: "open", true: "closed"}[g.closed]
	return &Study{
		Name: strconv.Itoa(g.figure), Flags: "requests spec channels json", Count: 4000, Spec: sweepDevice, Seed: 1,
		Cases: func(s Setup, spec dram.Spec) (cases []Case) {
			strides, banks := axes(spec)
			for _, b := range banks {
				for _, stride := range strides {
					cases = append(cases, measure(fmt.Sprintf("stride=%d banks=%d", stride, b), len(models),
						func(i int) (Point, error) { return g.point(models[i], s, spec, stride, b) },
						func(rigs []*Rig) Row {
							return Row{{"strideBursts", stride}, {"banks", b},
								{"eventUtil", rigs[0].AvgBusUtilisation()}, {"cycleUtil", rigs[1].AvgBusUtilisation()}}
						}))
				}
			}
			return cases
		},
		Title: func(t *Table) string {
			return fmt.Sprintf("%s\nmemory: %s, mapping: %s, page: %s, reads: %d%%, %d requests/point\n",
				g.name, t.Spec.Name, g.mapping, page, g.readPct, t.Setup.N)
		},
		Print: func(w io.Writer, t *Table) {
			if t.Setup.Channels > 1 {
				fmt.Fprintf(w, "interleaved over %d channels (per-channel average utilisation)\n", t.Setup.Channels)
			}
			strides, banks := axes(t.Spec)
			fmt.Fprintf(w, "\n%-8s", "stride")
			for _, b := range banks {
				fmt.Fprintf(w, "  %13s", fmt.Sprintf("banks=%d ev/cy", b))
			}
			for _, stride := range strides {
				fmt.Fprintf(w, "\n%-8d", stride)
				for _, b := range banks {
					for _, row := range t.Rows {
						if row.Get("strideBursts") == stride && row.Get("banks") == b {
							fmt.Fprintf(w, "  %6.3f/%6.3f", row.Get("eventUtil"), row.Get("cycleUtil"))
						}
					}
				}
			}
			fmt.Fprintln(w)
		},
		Partial: "%[1]d of %[2]d points",
		// "kind" names the command that first wrote this form, so that old
		// files and new compare.
		JSON: func(t *Table) Row {
			head := Row{{"kind", "bwsweep"}, {"figure", g.figure}, {"name", g.name}, {"spec", t.Spec.Name},
				{"mapping", g.mapping.String()}, {"page", page}, {"readPct", g.readPct}, {"requests", t.Setup.N}}
			if t.Setup.Channels > 1 {
				head = append(head, Cell{"channels", t.Setup.Channels})
			}
			return append(head, Cell{"partial", t.Partial()})
		},
	}
}
