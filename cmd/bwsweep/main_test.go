package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clitest"
	"repro/internal/experiments"
)

// Every sweep shape prints what the parent commit's binary printed.
func TestGoldens(t *testing.T) {
	for name, args := range map[string][]string{
		"fig3":           {"-figure", "3", "-requests", "500"},
		"fig4":           {"-figure", "4", "-requests", "500"},
		"fig5":           {"-figure", "5", "-requests", "500"},
		"fig3_channels2": {"-figure", "3", "-requests", "500", "-channels", "2"},
		"fig3_ddr4":      {"-figure", "3", "-requests", "500", "-standard", "ddr4"},
		"ablation_all":   {"-ablation", "all", "-requests", "500"},
	} {
		clitest.Golden(t, run, name, nil, args...)
	}
}

// -json writes the canonical result file and says so ahead of the table.
func TestJSONGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig3.json")
	out, err := clitest.Tool(run).Output("-figure", "3", "-requests", "500", "-json", path)
	if err != nil {
		t.Fatal(err)
	}
	clitest.Same(t, "fig3", nil, []byte(strings.TrimPrefix(out, "result written to "+path+"\n")))
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	clitest.Same(t, "fig3_json", nil, got)
}

func TestBadInput(t *testing.T) {
	for _, c := range []struct {
		want string
		args []string
	}{
		{"flag -requests: must be at least 1", []string{"-requests", "0"}},
		{"flag -requests: must be at least 1", []string{"-ablation", "all", "-requests", "0"}},
		{"figure 6 is not a bandwidth sweep", []string{"-figure", "6"}},
		{`unknown ablation "nosuch"`, []string{"-ablation", "nosuch"}},
		{`unknown standard "ddr9"`, []string{"-standard", "ddr9"}},
		{"need at least one channel", []string{"-channels", "0"}},
		// A sweep flag beside -ablation would be ignored, so it is refused.
		{"-figure has no effect with -ablation", []string{"-ablation", "mapping", "-figure", "4"}},
		{"-channels has no effect with -ablation", []string{"-ablation", "mapping", "-channels", "2"}},
		{"-standard has no effect with -ablation", []string{"-ablation", "mapping", "-standard", "ddr4"}},
		{"-json has no effect with -ablation", []string{"-ablation", "all", "-json", "x.json"}},
	} {
		clitest.Refused(t, run, c.want, c.args...)
	}
}

// An interrupt after the first sweep point (two runs, one per model) prints
// that point, marks the JSON partial and returns the sentinel; after the first
// ablation study (four configurations) it prints that study.
func TestInterrupt(t *testing.T) {
	defer func() { stop = nil }()
	path := filepath.Join(t.TempDir(), "fig3.json")
	stop = clitest.StopAfter(2)
	out, err := clitest.Tool(run).Output("-figure", "3", "-requests", "500", "-json", path)
	if !errors.Is(err, experiments.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !strings.HasPrefix(out, "interrupted; partial results (1 of 32 points):\n") || !strings.Contains(out, "\n1          0.115/ 0.115\n2       \n") {
		t.Errorf("partial table:\n%s", out)
	}
	js, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), `"partial": true`) || strings.Count(string(js), `"strideBursts"`) != 1 {
		t.Errorf("partial JSON:\n%s", js)
	}

	stop = clitest.StopAfter(4)
	out, err = clitest.Tool(run).Output("-ablation", "all", "-requests", "500")
	if !errors.Is(err, experiments.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !strings.HasPrefix(out, "interrupted; partial results (1 ablations):\n") || strings.Count(out, "\nAblation: ") != 1 {
		t.Errorf("partial ablations:\n%s", out)
	}
}
