package analysis

import (
	"go/token"
	"strings"
)

// Suppression: a `//lint:allow <analyzer> <reason>` comment silences that
// analyzer's findings on its own line and on the line immediately below (so
// both trailing comments and a comment line above the offending statement
// work). The reason is mandatory — an allow that does not say why is exactly
// the kind of unreviewable exception this pass exists to prevent, so a
// reasonless or malformed directive is itself reported, under the
// pseudo-analyzer name "lint", and cannot be suppressed.
//
// Directives rot in the other direction too: the code they excused gets
// refactored away and the stale comment keeps blessing whatever lands on
// that line next. So a well-formed directive that suppressed nothing is also
// reported under "lint", and cannot be suppressed either: a directive that
// is meant to stay is one that still has a finding to silence.

const allowPrefix = "//lint:allow"

// allowDirective is one well-formed //lint:allow comment.
type allowDirective struct {
	file     string
	line     int
	analyzer string
	used     bool
}

// parseAllows extracts every //lint:allow directive in the package, in source
// order, reporting malformed ones (no analyzer, no reason, unknown analyzer
// name) as findings.
func parseAllows(pkg *Package, known map[string]bool) ([]*allowDirective, []Finding) {
	var allows []*allowDirective
	var bad []Finding
	report := func(pos token.Pos, msg string) {
		bad = append(bad, Finding{Pos: pkg.Fset.Position(pos), Analyzer: "lint", Message: msg})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:allowance — not ours
				}
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0:
					report(c.Pos(), "//lint:allow needs an analyzer name and a reason")
				case !known[fields[0]]:
					report(c.Pos(), `//lint:allow names unknown analyzer "`+fields[0]+`"`)
				case len(fields) < 2:
					report(c.Pos(), "//lint:allow "+fields[0]+" needs a reason")
				default:
					pos := pkg.Fset.Position(c.Pos())
					allows = append(allows, &allowDirective{file: pos.Filename, line: pos.Line, analyzer: fields[0]})
				}
			}
		}
	}
	return allows, bad
}

// applySuppressions drops findings covered by a well-formed allow directive,
// appends findings for malformed directives, and reports directives that
// suppressed nothing (staleness).
func applySuppressions(pkg *Package, raw []Finding, known map[string]bool) []Finding {
	allows, bad := parseAllows(pkg, known)
	var out []Finding
	for _, f := range raw {
		if d := suppressor(f, allows); d != nil {
			d.used = true
			continue
		}
		out = append(out, f)
	}
	for _, d := range allows {
		if !d.used {
			out = append(out, Finding{
				Pos:      token.Position{Filename: d.file, Line: d.line},
				Analyzer: "lint",
				Message:  "//lint:allow " + d.analyzer + " no longer suppresses any finding; delete it",
			})
		}
	}
	return append(out, bad...)
}

// suppressor returns the directive covering the finding, if any: same file,
// the analyzer matches, and the directive sits on the finding's line or the
// line above.
func suppressor(f Finding, allows []*allowDirective) *allowDirective {
	for _, d := range allows {
		if d.file == f.Pos.Filename && d.analyzer == f.Analyzer && (d.line == f.Pos.Line || d.line == f.Pos.Line-1) {
			return d
		}
	}
	return nil
}
