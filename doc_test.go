package repro_test

import (
	"os"
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
