package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestScalar(t *testing.T) {
	r := NewRegistry("ctrl")
	s := r.NewScalar("reads", "number of reads")
	s.Inc()
	s.Add(4)
	if s.Value() != 5 {
		t.Fatalf("Value = %v, want 5", s.Value())
	}
	s.Set(10)
	if s.Value() != 10 {
		t.Fatalf("Value = %v, want 10", s.Value())
	}
	s.Reset()
	if s.Value() != 0 {
		t.Fatalf("Value after Reset = %v, want 0", s.Value())
	}
	if s.Name() != "ctrl.reads" {
		t.Fatalf("Name = %q", s.Name())
	}
}

func TestAverage(t *testing.T) {
	r := NewRegistry("")
	a := r.NewAverage("lat", "latency")
	if a.Mean() != 0 {
		t.Fatal("empty mean not 0")
	}
	for _, v := range []float64{10, 20, 30} {
		a.Sample(v)
	}
	if a.Mean() != 20 || a.Count() != 3 || a.Sum() != 60 {
		t.Fatalf("mean=%v count=%v sum=%v", a.Mean(), a.Count(), a.Sum())
	}
}

func TestRegistryChildAndDump(t *testing.T) {
	root := NewRegistry("sys")
	child := root.Child("mem")
	s := child.NewScalar("bytes", "bytes moved")
	s.Add(42)
	if root.Get("sys.mem.bytes") != s {
		t.Fatal("Get through root failed")
	}
	var sb strings.Builder
	if err := root.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "sys.mem.bytes") || !strings.Contains(out, "42") {
		t.Fatalf("dump missing stat: %q", out)
	}
	root.ResetAll()
	if s.Value() != 0 {
		t.Fatal("ResetAll did not reset child stat")
	}
}

// A duplicate panics at the registering call. A name is the joined string,
// however it is split between a registry's prefix and the leaf.
func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry("x")
	r.NewScalar("a", "")
	mustPanic(t, `stats: duplicate statistic "x.a"`, func() { r.NewScalar("a", "") })
	r.Child("a").NewScalar("b.c", "")
	mustPanic(t, `stats: duplicate statistic "x.a.b.c"`, func() { r.Child("a.b").NewScalar("c", "") })
	mustPanic(t, `stats: duplicate statistic "x.a.b.c"`, func() { r.NewAverage("a.b.c", "") })
	r.Child("a.b").NewScalar("cd", "") // a longer name sharing the prefix is distinct
}

func TestHistogramBasics(t *testing.T) {
	r := NewRegistry("")
	h := r.NewHistogram("lat", "latency ns", 0, 100, 10)
	for _, v := range []float64{5, 15, 15, 95, -1, 100, 250} {
		h.Sample(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d", h.Count())
	}
	b := h.Buckets()
	if b[0] != 1 || b[1] != 2 || b[9] != 1 {
		t.Fatalf("buckets = %v", b)
	}
	if h.underflow != 1 || h.overflow != 2 {
		t.Fatalf("under=%d over=%d", h.underflow, h.overflow)
	}
	if h.Min() != -1 || h.Max() != 250 {
		t.Fatalf("min=%v max=%v", h.Min(), h.Max())
	}
	wantMean := (5.0 + 15 + 15 + 95 - 1 + 100 + 250) / 7
	if math.Abs(h.Mean()-wantMean) > 1e-9 {
		t.Fatalf("mean = %v, want %v", h.Mean(), wantMean)
	}
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("reset failed")
	}
}

func TestHistogramBadShapePanics(t *testing.T) {
	r := NewRegistry("")
	defer func() {
		if recover() == nil {
			t.Fatal("bad histogram shape did not panic")
		}
	}()
	r.NewHistogram("bad", "", 10, 10, 4)
}

func TestHistogramPercentile(t *testing.T) {
	r := NewRegistry("")
	h := r.NewHistogram("lat", "", 0, 100, 100)
	for i := 0; i < 100; i++ {
		h.Sample(float64(i) + 0.5)
	}
	p50 := h.Percentile(50)
	if p50 < 45 || p50 > 55 {
		t.Fatalf("p50 = %v", p50)
	}
	p99 := h.Percentile(99)
	if p99 < 95 || p99 > 100 {
		t.Fatalf("p99 = %v", p99)
	}
}

func TestHistogramModesBimodal(t *testing.T) {
	r := NewRegistry("")
	h := r.NewHistogram("lat", "", 0, 100, 20)
	// Two clusters: around 10 and around 80.
	for i := 0; i < 500; i++ {
		h.Sample(10 + float64(i%5))
		h.Sample(80 + float64(i%5))
	}
	modes := h.Modes(0.10)
	if len(modes) != 2 {
		t.Fatalf("modes = %v, want 2 modes", modes)
	}
	lo0, _ := h.BucketBounds(modes[0])
	lo1, _ := h.BucketBounds(modes[1])
	if !(lo0 <= 10 && lo1 >= 75) {
		t.Fatalf("mode positions %v %v", lo0, lo1)
	}
	// A unimodal distribution reports a single mode.
	h.Reset()
	for i := 0; i < 1000; i++ {
		h.Sample(50 + float64(i%3))
	}
	if m := h.Modes(0.10); len(m) != 1 {
		t.Fatalf("unimodal modes = %v", m)
	}
}

func TestHistogramStdDev(t *testing.T) {
	r := NewRegistry("")
	h := r.NewHistogram("x", "", 0, 10, 10)
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		h.Sample(v)
	}
	if math.Abs(h.StdDev()-2) > 1e-9 {
		t.Fatalf("stddev = %v, want 2", h.StdDev())
	}
}

// Property: histogram count always equals underflow + overflow + sum(buckets),
// and the exact mean matches an independently computed mean.
func TestHistogramConservationProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRegistry("")
		h := r.NewHistogram("x", "", -50, 50, 13)
		count := int(n) + 1
		var sum float64
		for i := 0; i < count; i++ {
			v := rng.NormFloat64() * 40
			sum += v
			h.Sample(v)
		}
		var inBuckets uint64
		for _, c := range h.Buckets() {
			inBuckets += c
		}
		total := inBuckets + h.underflow + h.overflow
		if total != uint64(count) || h.Count() != uint64(count) {
			return false
		}
		return math.Abs(h.Mean()-sum/float64(count)) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotonically non-decreasing in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRegistry("")
		h := r.NewHistogram("x", "", 0, 1000, 50)
		for i := 0; i < 500; i++ {
			h.Sample(rng.Float64() * 1000)
		}
		prev := math.Inf(-1)
		for p := 1.0; p <= 100; p += 1 {
			v := h.Percentile(p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatNumber(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{42, "42"},
		{0, "0"},
		{-3, "-3"},
		{3.5, "3.5"},
		{0.125, "0.125"},
	}
	for _, c := range cases {
		if got := formatNumber(c.in); got != c.want {
			t.Errorf("formatNumber(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestDumpJSON(t *testing.T) {
	reg := NewRegistry("sys")
	reg.NewScalar("count", "things").Add(42)
	avg := reg.NewAverage("lat", "latency")
	avg.Sample(1.5)
	avg.Sample(2.5)
	var sb strings.Builder
	if err := reg.DumpJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &obj); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if obj["sys.count"] != 42.0 {
		t.Fatalf("count = %v", obj["sys.count"])
	}
	if obj["sys.lat"] != 2.0 {
		t.Fatalf("lat = %v", obj["sys.lat"])
	}
	// Deterministic: two dumps are byte-identical.
	var sb2 strings.Builder
	if err := reg.DumpJSON(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb.String() != sb2.String() {
		t.Fatal("JSON dump not deterministic")
	}
}

// TestAbsorbIdempotent: re-absorbing a shard registry whose Stat instances
// are already present is a no-op (no double counting, no duplicate dump
// rows), while a genuine name collision between distinct stats still panics.
func TestAbsorbIdempotent(t *testing.T) {
	root := NewRegistry("sys")
	shard := NewRegistry("sys")
	reads := shard.NewScalar("mc0.reads", "reads")
	reads.Add(3)

	root.Absorb(shard)
	root.Absorb(shard) // retry: same instances again
	if got := root.Get("sys.mc0.reads"); got != Stat(reads) {
		t.Fatalf("Get after double absorb = %v, want the shard's scalar", got)
	}

	var sb strings.Builder
	if err := root.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(sb.String(), "sys.mc0.reads"); n != 1 {
		t.Fatalf("dump has %d rows for sys.mc0.reads, want 1:\n%s", n, sb.String())
	}

	other := NewRegistry("sys")
	other.Child("mc0").NewScalar("reads", "imposter")
	mustPanic(t, `stats: duplicate statistic "sys.mc0.reads" absorbed`, func() { root.Absorb(other) })
}

// mustPanic runs f and fails unless it panics with want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if got := recover(); got != want {
			t.Fatalf("panic = %v, want %q", got, want)
		}
	}()
	f()
}

// Get takes the full name, including one registered under a dotted leaf (as
// obs.SamplerProbe registers "bank0.openResidency").
func TestGetDottedLeaf(t *testing.T) {
	r := NewRegistry("sys")
	open := r.Child("obs").Child("mc0").NewAverage("bank0.openResidency", "")
	if got := r.Get("sys.obs.mc0.bank0.openResidency"); got != Stat(open) {
		t.Fatalf("Get = %v, want the dotted-leaf average", got)
	}
	for _, miss := range []string{"sys.obs.mc0.bank0", "obs.mc0.bank0.openResidency", "sys.obs.mc0.bank0.openResidencyX", ""} {
		if got := r.Get(miss); got != nil {
			t.Fatalf("Get(%q) = %v, want nil", miss, got)
		}
	}
}

// Two distinct names under one hash both register and both resolve, and
// putting a taken name again returns the statistic already there.
func TestNameHashCollision(t *testing.T) {
	r := NewRegistry("x")
	a := &Scalar{ident: ident{"x", "a", ""}}
	b := &Average{ident: ident{"x.b", "c", ""}}
	const h = 42
	if r.store.put(h, a) != nil || r.store.put(h, b) != nil {
		t.Fatal("distinct names under one hash were refused")
	}
	if got := r.store.find(h, "x.a"); got != Stat(a) {
		t.Fatalf("find(x.a) = %v", got)
	}
	if got := r.store.find(h, "x.b.c"); got != Stat(b) {
		t.Fatalf("find(x.b.c) = %v", got)
	}
	if got := r.store.find(h, "x.d"); got != nil {
		t.Fatalf("find(x.d) = %v, want nil", got)
	}
	if prev := r.store.put(h, &Scalar{ident: ident{"x", "b.c", ""}}); prev != Stat(b) {
		t.Fatalf("re-put of x.b.c returned %v, want the first", prev)
	}
	if nameHash("x.b", "c") != nameHash("", "x.b.c") || nameHash("x", "a") == nameHash("x", "b") {
		t.Fatal("nameHash does not hash the joined name")
	}
}

// Registering statistics allocates no string and no object of its own: 64
// scalars under a fresh child cost the child (its struct and joined prefix)
// and four slabs of 16, while the store's index and list grow amortised.
func TestRegisterAllocations(t *testing.T) {
	leaves, children := make([]string, 64), make([]string, 101) // AllocsPerRun warms up once
	for i := range leaves {
		leaves[i] = fmt.Sprintf("s%d", i)
	}
	for i := range children {
		children[i] = fmt.Sprintf("c%d", i)
	}
	r, next := NewRegistry("sys"), 0
	allocs := testing.AllocsPerRun(100, func() {
		c := r.Child(children[next])
		next++
		for _, leaf := range leaves {
			c.NewScalar(leaf, "")
		}
	})
	t.Logf("registering 64 scalars under one child: %v allocations", allocs)
	if allocs > 8 {
		t.Fatalf("registering 64 scalars under one child: %v allocations, want at most 8", allocs)
	}
}
