package faults

import "testing"

func TestConfigValidate(t *testing.T) {
	good := Config{Seed: 1, CorrectablePerBurst: 0.1, UncorrectablePerBurst: 0.01}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{CorrectablePerBurst: -0.1},
		{UncorrectablePerBurst: 1.5},
		{TransientPerBurst: -1},
		{CorrectablePerBurst: 0.6, UncorrectablePerBurst: 0.6}, // sum > 1
		{StuckRows: []StuckRow{{Rank: -1}}},
		{StuckRows: []StuckRow{{Kind: OK}}}, // stuck rows must fail somehow
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		if _, err := NewInjector(cfg); err == nil {
			t.Errorf("NewInjector accepted bad config %d", i)
		}
	}
}

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config enabled")
	}
	cases := []Config{
		{CorrectablePerBurst: 0.1},
		{UncorrectablePerBurst: 0.1},
		{TransientPerBurst: 0.1},
		{StuckRows: []StuckRow{{Kind: Correctable}}},
	}
	for i, cfg := range cases {
		if !cfg.Enabled() {
			t.Errorf("config %d not enabled", i)
		}
	}
}

// Same seed, same access sequence: identical outcome sequences.
func TestDeterminism(t *testing.T) {
	run := func() []Outcome {
		in, err := NewInjector(Config{
			Seed:                  42,
			CorrectablePerBurst:   0.2,
			UncorrectablePerBurst: 0.05,
			TransientPerBurst:     0.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		var out []Outcome
		for i := 0; i < 1000; i++ {
			out = append(out, in.OnReadBurst(i%2, i%8, uint64(i%64)))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outcome %d differs: %s vs %s", i, a[i], b[i])
		}
	}
	// A different seed must give a different sequence.
	in2, _ := NewInjector(Config{
		Seed: 43, CorrectablePerBurst: 0.2, UncorrectablePerBurst: 0.05, TransientPerBurst: 0.1,
	})
	same := true
	for i := 0; i < 1000; i++ {
		if in2.OnReadBurst(i%2, i%8, uint64(i%64)) != a[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seed 43 reproduced seed 42's sequence")
	}
}

// Observed frequencies track the configured per-burst rates.
func TestRateSanity(t *testing.T) {
	in, err := NewInjector(Config{
		Seed:                  7,
		CorrectablePerBurst:   0.10,
		UncorrectablePerBurst: 0.02,
		TransientPerBurst:     0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Outcome]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		counts[in.OnReadBurst(0, 0, 0)]++
	}
	check := func(o Outcome, want float64) {
		got := float64(counts[o]) / n
		if got < want*0.8 || got > want*1.2 {
			t.Errorf("%s rate = %v, want ~%v", o, got, want)
		}
	}
	check(Correctable, 0.10)
	check(Uncorrectable, 0.02)
	check(Transient, 0.05)
	if in.Draws() != n {
		t.Fatalf("draws = %d, want %d", in.Draws(), n)
	}
}

func TestStuckRowsAndRetirement(t *testing.T) {
	in, err := NewInjector(Config{
		Seed:      1,
		StuckRows: []StuckRow{{Rank: 0, Bank: 2, Row: 7, Kind: Transient}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got := in.OnReadBurst(0, 2, 7); got != Transient {
			t.Fatalf("stuck row returned %s", got)
		}
	}
	if got := in.OnReadBurst(0, 2, 8); got != OK {
		t.Fatalf("healthy row returned %s", got)
	}
	// Retirement remaps the row to a spare: clean data from then on.
	if !in.RetireRow(0, 2, 7) {
		t.Fatal("first retirement reported false")
	}
	if in.RetireRow(0, 2, 7) {
		t.Fatal("second retirement reported true")
	}
	if got := in.OnReadBurst(0, 2, 7); got != OK {
		t.Fatalf("retired row returned %s", got)
	}
	if in.RetiredRows() != 1 {
		t.Fatalf("retired rows = %d", in.RetiredRows())
	}
}

func TestOutcomeString(t *testing.T) {
	names := map[Outcome]string{
		OK: "ok", Correctable: "correctable",
		Uncorrectable: "uncorrectable", Transient: "transient",
	}
	for o, want := range names {
		if o.String() != want {
			t.Errorf("%d = %q, want %q", int(o), o.String(), want)
		}
	}
	if Outcome(99).String() != "Outcome(99)" {
		t.Error("unknown outcome name")
	}
}
