package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/dram"
	"repro/internal/system"
)

// A Study is one of the paper's studies as a value: the cases it measures,
// each into one row of named cells, and how those rows print. Runner.Study
// runs any study into a Table; Table.Print prints any table and its
// MarshalJSON is the one -json form.
type Study struct {
	// Name is what `paper -figure` (or -ablation) selects the study by;
	// Flags are the other flags it reads.
	Name, Flags string
	// Count, Spec and Seed are its defaults: requests per case (memory
	// operations per core for Figs. 8 and 9), the device its cases run on
	// (unset where each case names its own) and the traffic's seed.
	Count uint64
	Spec  dram.Spec
	Seed  int64
	// Cases lists, in order, what a run under s on device spec measures.
	Cases func(s Setup, spec dram.Spec) []Case
	// Title heads the rows, which Columns print; Print, when set, prints
	// them instead (Figs. 3-5's grid, Figs. 6-7's histograms). Footer, when
	// set, follows them.
	Title   func(t *Table) string
	Columns []Column
	Print   func(w io.Writer, t *Table)
	Footer  func(t *Table) string
	// Partial says how far an interrupted run got, as a format of the rows
	// measured (%[1]d) and the cases there were (%[2]d).
	Partial string
	// Finish, when set, completes the rows of a run that measured every
	// case: Fig. 9 normalises IPC to its first row.
	Finish func(rows []Row)
	// JSON, when set, gives the -json file's fields ahead of its rows.
	JSON func(t *Table) Row
}

// Studies are the paper's figures and tables, in the order `paper -figure`
// lists them; Ablations are the design ablations.
var Studies = []*Study{sweeps[0].study(), sweeps[1].study(), sweeps[2].study(), latencies[0].study(), latencies[1].study(),
	fig8Study, fig9Study, powerStudy, savingsStudy, speedupStudy}

// Setup is one run of a study: Study.Setup's defaults, or what a caller sets.
type Setup struct {
	N    uint64
	Seed int64
	// Spec, when set, is the device every case runs on (paper -spec); nil
	// leaves each case on its own.
	Spec     *dram.Spec
	Channels int
	Cores    int
	Bin      float64 // histogram bin width for display, ns
}

// Setup returns the study's default run: its count and seed, one channel, 16
// cores (Fig. 9's) and 25 ns histogram bins.
func (st *Study) Setup() Setup {
	return Setup{N: st.Count, Seed: st.Seed, Channels: 1, Cores: 16, Bin: 25}
}

// A Case is one row of a study: Measure builds and runs its points. A
// study's cases are built afresh for each run.
type Case struct {
	Name    string
	Measure func(r Runner) (Row, error)
}

// models are the two controller models in the order a case runs them.
var models = []system.Kind{system.EventBased, system.CycleBased}

// each is one case per x, in order.
func each[T any](xs []T, c func(x T) Case) []Case {
	cases := make([]Case, len(xs))
	for i, x := range xs {
		cases[i] = c(x)
	}
	return cases
}

// measure is a case of n runs, run i on build(i)'s point; row reads its cells
// off the finished rigs.
func measure(name string, n int, build func(i int) (Point, error), row func(rigs []*Rig) Row) Case {
	return Case{name, func(r Runner) (Row, error) {
		rigs := make([]*Rig, n)
		for i := range rigs {
			p, err := build(i)
			if err == nil {
				rigs[i], err = r.Run(p)
			}
			if err != nil {
				return nil, err
			}
		}
		return row(rigs), nil
	}}
}

// A Column prints one cell of every row: Head over it, the value by Format.
type Column struct{ Key, Head, Format string }

// A Cell is one named value of a row; Key is also its JSON key.
type Cell struct {
	Key   string
	Value any
}

// A Row is one case's measurement, its cells in the order JSON lists them.
type Row []Cell

// Get returns the row's cell key, nil if it has none.
func (r Row) Get(key string) any {
	for _, c := range r {
		if c.Key == key {
			return c.Value
		}
	}
	return nil
}

// Float returns the float64 cell key, NaN if the row has none.
func (r Row) Float(key string) float64 {
	if v, ok := r.Get(key).(float64); ok {
		return v
	}
	return math.NaN()
}

// set replaces the row's cell key.
func (r Row) set(key string, v any) {
	for i := range r {
		if r[i].Key == key {
			r[i].Value = v
		}
	}
}

// MarshalJSON writes the row as an object, its cells in order.
func (r Row) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for i, c := range r {
		k, _ := json.Marshal(c.Key)
		v, err := json.Marshal(c.Value)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, k...), ':'), v...)
	}
	return append(b, '}'), nil
}

// A Table is a run of a study: one row per case measured, in case order.
type Table struct {
	Study *Study
	Setup Setup
	Spec  dram.Spec // the device the cases ran on
	Rows  []Row
	Cases int // how many the run had: fewer rows mean it was interrupted
}

// Study runs st's cases under s, in order, into a table. This is the one place
// Setup.Spec replaces the study's device. An interrupted or failed run returns
// the rows measured before it with the error; a complete one is finished by
// st.Finish.
func (r Runner) Study(st *Study, s Setup) (*Table, error) {
	t := &Table{Study: st, Setup: s, Spec: st.Spec, Rows: []Row{}}
	if s.Spec != nil {
		t.Spec = *s.Spec
	}
	cases := st.Cases(s, t.Spec)
	t.Cases = len(cases)
	for _, c := range cases {
		row, err := c.Measure(r)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, row)
	}
	if st.Finish != nil {
		st.Finish(t.Rows)
	}
	return t, nil
}

// Partial reports whether the run stopped before its last case.
func (t *Table) Partial() bool { return len(t.Rows) < t.Cases }

// Progress says how far the run got, in the study's Partial wording.
func (t *Table) Progress() string {
	if !strings.Contains(t.Study.Partial, "%") {
		return t.Study.Partial
	}
	return fmt.Sprintf(t.Study.Partial, len(t.Rows), t.Cases)
}

// Mean is the average of column key over the rows, summed in order; 0 for
// none.
func (t *Table) Mean(key string) float64 {
	if len(t.Rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range t.Rows {
		sum += r.Float(key)
	}
	return sum / float64(len(t.Rows))
}

// Max is the largest value of column key over the rows, and at least 0.
func (t *Table) Max(key string) float64 {
	m := 0.0
	for _, r := range t.Rows {
		m = math.Max(m, r.Float(key))
	}
	return m
}

// Print writes the table: the title, the rows and the footer.
func (t *Table) Print(w io.Writer) {
	st := t.Study
	io.WriteString(w, st.Title(t))
	if st.Print != nil {
		st.Print(w, t)
	} else {
		io.WriteString(w, t.Format(st.Columns))
	}
	if st.Footer != nil {
		io.WriteString(w, st.Footer(t))
	}
}

// Format renders the rows under cols: a line of heads, then a line per row,
// cells a space apart. A row without a column's cell shows "-" in it.
func (t *Table) Format(cols []Column) string {
	var b strings.Builder
	line := func(cell func(Column) string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(cell(c))
		}
		b.WriteByte('\n')
	}
	line(func(c Column) string { return fmt.Sprintf(headFormat(c.Format), c.Head) })
	for _, r := range t.Rows {
		line(func(c Column) string {
			if v := r.Get(c.Key); v != nil {
				return fmt.Sprintf(c.Format, v)
			}
			return fmt.Sprintf(headFormat(c.Format), "-")
		})
	}
	return b.String()
}

var cellFormat = regexp.MustCompile(`^%(-?)(\d+)[.\d]*[a-z](.*)$`)

// headFormat is the format of a head above cells printed by f: as wide as
// f's field and the text after its verb, and aligned the same way.
func headFormat(f string) string {
	m := cellFormat.FindStringSubmatch(f)
	width, _ := strconv.Atoi(m[2])
	return "%" + m[1] + strconv.Itoa(width+len(strings.ReplaceAll(m[3], "%%", "%"))) + "s"
}

// MarshalJSON is the study's -json form: its JSON fields, then "rows". Nothing
// host-dependent belongs there, so two runs of the same study compare by cmp.
func (t *Table) MarshalJSON() ([]byte, error) {
	return append(t.Study.JSON(t), Cell{"rows", t.Rows}).MarshalJSON()
}

// EncodeResultJSON is the one encoder every -json result goes through:
// two-space indentation, trailing newline.
func EncodeResultJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
