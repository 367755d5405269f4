package repro_test

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
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
		{"DESIGN.md", len(read("DESIGN.md")), 86_000},
		{"README.md", len(read("README.md")), 27_000},
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
// or in a fenced block, starts with a tool that was folded into cmd/paper.
func TestDocsNameLiveTools(t *testing.T) {
	retired := []string{"bwsweep", "latdist", "powercmp", "speedup", "fullsys", "explore"}
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
				t.Errorf("%s: %q starts with %s, a tool now run as paper -figure/-ablation", doc, c, f[0])
			}
		}
	}
}
