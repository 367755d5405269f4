package analysis_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// moduleRoot returns the repository root (two levels up from this package),
// which is both the Load directory and the base for relative paths in golden
// files.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root %s has no go.mod: %v", root, err)
	}
	return root
}

// loadFixture type-checks one fixture package under testdata/src.
func loadFixture(t *testing.T, name string) []*analysis.Package {
	t.Helper()
	root := moduleRoot(t)
	pkgs, err := analysis.Load(root, "./internal/analysis/testdata/src/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: got %d packages, want 1", name, len(pkgs))
	}
	return pkgs
}

// TestGolden runs every analyzer over each fixture package and compares the
// formatted findings against the checked-in golden file.
func TestGolden(t *testing.T) {
	root := moduleRoot(t)
	for _, name := range []string{
		"detmap", "ckptfields", "suppress", "tickunits", "shardiso", "interact",
	} {
		t.Run(name, func(t *testing.T) {
			pkgs := loadFixture(t, name)
			findings := analysis.Run(pkgs, analysis.Analyzers())
			if len(findings) == 0 {
				t.Fatalf("fixture %s produced no findings; each fixture must trip its analyzer", name)
			}
			got := analysis.Format(findings, root)
			goldenPath := filepath.Join(root, "internal", "analysis", "testdata", "golden", name+".golden")
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("reading golden: %v", err)
			}
			if got != string(want) {
				t.Errorf("findings differ from %s\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
			}
		})
	}
}

// TestSuppression pins the semantics the golden file encodes: a well-formed
// //lint:allow (trailing or on the preceding line) silences its finding, a
// reasonless or unknown-analyzer directive is itself a finding and silences
// nothing, and a directive for a different analyzer does not suppress.
func TestSuppression(t *testing.T) {
	pkgs := loadFixture(t, "suppress")
	findings := analysis.Run(pkgs, analysis.Analyzers())

	byLine := map[int][]analysis.Finding{}
	for _, f := range findings {
		byLine[f.Pos.Line] = append(byLine[f.Pos.Line], f)
	}

	// Allowed (line 10) and AllowedAbove (line 16) are suppressed.
	for _, line := range []int{10, 16} {
		if fs := byLine[line]; len(fs) != 0 {
			t.Errorf("line %d: suppressed call still reported: %v", line, fs)
		}
	}

	// MissingReason: the reasonless directive is a "lint" finding and the
	// tickunits finding survives.
	wantPair := func(line int, lintSubstr string) {
		t.Helper()
		var lint, tick bool
		for _, f := range byLine[line] {
			switch f.Analyzer {
			case "lint":
				lint = strings.Contains(f.Message, lintSubstr)
			case "tickunits":
				tick = true
			}
		}
		if !lint {
			t.Errorf("line %d: missing [lint] finding containing %q; got %v", line, lintSubstr, byLine[line])
		}
		if !tick {
			t.Errorf("line %d: the bad directive must not suppress the tickunits finding; got %v", line, byLine[line])
		}
	}
	wantPair(22, "needs a reason")
	wantPair(27, "unknown analyzer")
	// WrongAnalyzer: the directive names detmap, so tickunits survives — and
	// the directive, suppressing nothing, is reported stale.
	wantPair(33, "no longer suppresses any finding")

	// Dormant: "lint" is no analyzer a directive may name, so the directive
	// below it stays stale.
	if fs := byLine[40]; len(fs) != 1 || !strings.Contains(fs[0].Message, `unknown analyzer "lint"`) {
		t.Errorf("line 40: want one unknown-analyzer finding for //lint:allow lint; got %v", fs)
	}
	if fs := byLine[41]; len(fs) != 1 || !strings.Contains(fs[0].Message, "no longer suppresses any finding") {
		t.Errorf("line 41: want one stale-directive finding; got %v", fs)
	}
}

// TestInteract pins the cross-analyzer contract on the interact fixture:
// every registered analyzer fires at least once, the global finding order is
// deterministic (file, line, analyzer, message — and stable across runs),
// and a //lint:allow scoped to one analyzer leaves the other analyzer's
// finding on the same line intact.
func TestInteract(t *testing.T) {
	pkgs := loadFixture(t, "interact")
	findings := analysis.Run(pkgs, analysis.Analyzers())

	fired := map[string]bool{}
	for _, f := range findings {
		fired[f.Analyzer] = true
	}
	for _, a := range analysis.Analyzers() {
		if !fired[a.Name] {
			t.Errorf("interact fixture did not trip analyzer %q", a.Name)
		}
	}

	// Deterministic order: sorted by (file, line, analyzer, message), and a
	// second run over a fresh load produces the identical sequence.
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1], findings[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line == b.Pos.Line && a.Analyzer > b.Analyzer) {
			t.Errorf("findings out of order at %d: %v before %v", i, a, b)
		}
	}
	again := analysis.Run(loadFixture(t, "interact"), analysis.Analyzers())
	if len(again) != len(findings) {
		t.Fatalf("re-run produced %d findings, first run %d", len(again), len(findings))
	}
	for i := range findings {
		if findings[i].String() != again[i].String() {
			t.Errorf("finding %d differs across runs: %q vs %q", i, findings[i], again[i])
		}
	}

	// Scoped suppression: the line in Scoped carries both a tickunits and a
	// detmap finding; the directive names tickunits only.
	var scopedLine int
	for _, f := range findings {
		if f.Analyzer == "detmap" && f.Pos.Line > 41 && f.Pos.Line < 53 {
			scopedLine = f.Pos.Line
		}
	}
	if scopedLine == 0 {
		t.Fatal("interact fixture: no detmap finding in Scoped")
	}
	for _, f := range findings {
		if f.Pos.Line == scopedLine && f.Analyzer == "tickunits" {
			t.Errorf("line %d: //lint:allow tickunits did not suppress the tickunits finding", scopedLine)
		}
	}
}

// TestFindingString covers the plain rendering used by error paths.
func TestFindingString(t *testing.T) {
	pkgs := loadFixture(t, "tickunits")
	findings := analysis.Run(pkgs, analysis.Analyzers())
	if len(findings) == 0 {
		t.Fatal("no findings")
	}
	s := findings[0].String()
	if !strings.Contains(s, "[tickunits]") || !strings.Contains(s, "tickunits.go:") {
		t.Errorf("Finding.String() = %q; want file:line: [analyzer] message", s)
	}
}

// TestRealTreeClean asserts the acceptance criterion directly: simlint — every
// analyzer on every package — reports nothing on this repository.
func TestRealTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root := moduleRoot(t)
	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	findings := analysis.Run(pkgs, analysis.Analyzers())
	if len(findings) != 0 {
		t.Errorf("tree is not lint-clean:\n%s", analysis.Format(findings, root))
	}
}

// TestAnnotationRatchet holds the number of reasoned //lint:allow, //hot:allow
// and //ckpt:skip directives in Go sources outside this package to
// ci/annotations.txt, so a count only moves together with that file: a new
// suppression shows up in review as an edit there, and a deleted one is
// locked in.
func TestAnnotationRatchet(t *testing.T) {
	root := moduleRoot(t)
	patterns := map[string]*regexp.Regexp{
		"lint:allow": regexp.MustCompile(`//lint:allow [a-z]+ [^ ]`),
		"hot:allow":  regexp.MustCompile(`//hot:allow [^ ]`),
		"ckpt:skip":  regexp.MustCompile(`//ckpt:skip [^ ]`),
	}
	got := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch {
		case d.IsDir() && path == root:
			return nil
		case d.IsDir() && (strings.HasPrefix(d.Name(), ".") || path == filepath.Join(root, "internal", "analysis")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for name, re := range patterns {
			got[name] += len(re.FindAll(src, -1))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := os.ReadFile(filepath.Join(root, "ci", "annotations.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, line := range strings.Split(string(ledger), "\n") {
		var name string
		var n int
		if _, err := fmt.Sscanf(line, "%s %d", &name, &n); err == nil && patterns[name] != nil {
			want[name] = n
		}
	}
	for name := range patterns {
		if n, ok := want[name]; !ok {
			t.Errorf("ci/annotations.txt has no %s row", name)
		} else if got[name] != n {
			t.Errorf("%d //%s directives outside internal/analysis, ci/annotations.txt says %d: "+
				"a count moves only together with that file (a rise needs a reason a reviewer accepts)", got[name], name, n)
		}
	}
}

// TestSelfcheckGolden loads every fixture package into ONE program and
// requires its findings to be exactly the per-fixture goldens concatenated:
// one fixture's directives or call graph must not bleed into another
// fixture's findings.
func TestSelfcheckGolden(t *testing.T) {
	root := moduleRoot(t)
	entries, err := os.ReadDir(filepath.Join(root, "internal", "analysis", "testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	var patterns []string
	var want strings.Builder
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		patterns = append(patterns, "./internal/analysis/testdata/src/"+e.Name())
		golden, err := os.ReadFile(filepath.Join(root, "internal", "analysis", "testdata", "golden", e.Name()+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		want.Write(golden)
	}
	pkgs, err := analysis.Load(root, patterns...)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != len(patterns) {
		t.Fatalf("loaded %d packages for %d fixtures", len(pkgs), len(patterns))
	}
	if got := analysis.Format(analysis.Run(pkgs, analysis.Analyzers()), root); got != want.String() {
		t.Errorf("consolidated findings differ from the per-fixture goldens\n--- got ---\n%s--- want ---\n%s", got, want.String())
	}
}
