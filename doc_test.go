package repro_test

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// TestDocBudgets keeps the documents a reader starts from no larger than
// they are: each ceiling is the size at the commit that last set it, rounded
// up to the KB (1000 bytes, the unit ROADMAP item 10 counts in), and a
// ceiling only moves down — a document that outgrows its budget loses
// something else, or sends the detail to CHANGES.md or results/.
func TestDocBudgets(t *testing.T) {
	read := func(name string) string {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	// ROADMAP's budget is its Open items section alone: the heading up to the
	// next section of the same level.
	_, open, ok := strings.Cut(read("ROADMAP.md"), "\n## Open items\n")
	if !ok {
		t.Fatal("ROADMAP.md has no \"## Open items\" section")
	}
	open, _, _ = strings.Cut(open, "\n## ")
	for _, doc := range []struct {
		name    string
		bytes   int
		ceiling int
	}{
		{"DESIGN.md", len(read("DESIGN.md")), 80_000},
		{"README.md", len(read("README.md")), 26_000},
		{"ROADMAP.md Open items", len(open), 18_000},
	} {
		if doc.bytes > doc.ceiling {
			t.Errorf("%s is %d bytes, over its %d-byte budget: cut it back rather than raise the ceiling", doc.name, doc.bytes, doc.ceiling)
		}
	}
}

var (
	cmdPath    = regexp.MustCompile("(?:^|[^\\w/])(?:\\./)?cmd/(\\w+)")
	fenced     = regexp.MustCompile("(?s)```.*?```")
	inlineCode = regexp.MustCompile("`([^`]+)`")
)

// TestDocsNameLiveTools keeps the documents a reader copies commands from in
// step with cmd/: every cmd/NAME they cite is a command there (a retired
// tool's directory keeps only its tests), and no backticked command, inline
// or in a fenced block, starts with a retired tool: one folded into cmd/paper,
// or validate, whose checks are tier-1 tests.
func TestDocsNameLiveTools(t *testing.T) {
	retired := []string{"bwsweep", "latdist", "powercmp", "speedup", "fullsys", "explore", "validate"}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", "results/README.md", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		for _, m := range cmdPath.FindAllStringSubmatch(text, -1) {
			if _, err := os.Stat("cmd/" + m[1] + "/main.go"); err != nil {
				t.Errorf("%s cites cmd/%s, which is not a command", doc, m[1])
			}
		}
		var commands []string
		for _, block := range fenced.FindAllString(text, -1) {
			commands = append(commands, strings.Split(strings.Trim(block, "`"), "\n")...)
		}
		for _, m := range inlineCode.FindAllStringSubmatch(fenced.ReplaceAllString(text, ""), -1) {
			commands = append(commands, m[1])
		}
		for _, c := range commands {
			if f := strings.Fields(c); len(f) > 0 && slices.Contains(retired, f[0]) {
				t.Errorf("%s: %q starts with %s, a retired tool", doc, c, f[0])
			}
		}
	}
}

var (
	goldenCite = regexp.MustCompile("`(results/\\w+\\.txt)`")
	number     = regexp.MustCompile(`^\d+(\.\d+)?$`)
)

// hostColumns are the EXPERIMENTS.md table columns that are host-timed, so no
// golden holds them: §III-D's and Figure 8's.
var hostColumns = []string{"event host ns/req", "cycle host ns/req", "speedup", "sim time (host-timed)"}

// numbers returns every number in s: a run of digits, with a fraction or
// without, standing alone (not part of a word such as DDR3 or 4.39x).
func numbers(s string) []string {
	var out []string
	for _, w := range strings.FieldsFunc(s, func(r rune) bool {
		return r != '.' && r != '_' && !unicode.IsLetter(r) && !unicode.IsDigit(r)
	}) {
		if w = strings.TrimRight(w, "."); number.MatchString(w) {
			out = append(out, w)
		}
	}
	return out
}

// TestExperimentsQuoteResults keeps EXPERIMENTS.md from drifting off the
// results/ goldens, which the paper command's tests regenerate. Each section
// below cites its golden; every number in its tables (bar the host-timed
// columns), and every decimal in its "Measured" paragraph and its bullet
// list, must appear in that golden.
func TestExperimentsQuoteResults(t *testing.T) {
	b, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var cited []string
	for _, sec := range strings.Split(string(b), "\n## ")[1:] {
		heading, body, _ := strings.Cut(sec, "\n")
		m := goldenCite.FindAllStringSubmatch(body, -1)
		if len(m) == 0 {
			continue
		}
		if len(m) > 1 && m[1][1] != m[0][1] {
			t.Errorf("%q cites %s and %s; a section quotes one golden", heading, m[0][1], m[1][1])
		}
		golden, err := os.ReadFile(m[0][1])
		if err != nil {
			t.Fatal(err)
		}
		cited = append(cited, heading)
		have := map[string]bool{}
		for _, n := range numbers(string(golden)) {
			have[n] = true
		}
		check := func(where string, ns []string) {
			for _, n := range ns {
				if !have[n] {
					t.Errorf("%q %s quotes %s, which %s does not hold", heading, where, n, m[0][1])
				}
			}
		}
		for _, para := range strings.Split(body, "\n\n") {
			lines := strings.Split(strings.TrimSpace(para), "\n")
			switch {
			case strings.HasPrefix(lines[0], "|") && len(lines) > 2:
				header := strings.Split(strings.Trim(lines[0], "| "), "|")
				for _, row := range lines[2:] {
					for col, cell := range strings.Split(strings.Trim(row, "| "), "|") {
						if col < len(header) && slices.Contains(hostColumns, strings.TrimSpace(header[col])) {
							continue
						}
						check("table", numbers(cell))
					}
				}
			case strings.HasPrefix(lines[0], "Measured"), strings.HasPrefix(lines[0], "* "):
				check("prose", decimals(para))
			}
		}
	}
	for _, want := range []string{"Figure 3 ", "Figure 4 ", "Figure 5 ", "Figure 6 ", "Figure 7 ",
		"§III-C3 ", "§III-D ", "Figure 8 ", "Figure 9 ", "Ablations "} {
		if !slices.ContainsFunc(cited, func(h string) bool { return strings.HasPrefix(h, want) }) {
			t.Errorf("no EXPERIMENTS.md section %q... cites its results/ golden", want)
		}
	}
}

// decimals is numbers' fractional ones: prose integers are counts, sizes and
// the paper's own figures.
func decimals(s string) []string {
	var out []string
	for _, n := range numbers(s) {
		if strings.Contains(n, ".") {
			out = append(out, n)
		}
	}
	return out
}
