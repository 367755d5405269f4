package analysis

import (
	"go/ast"
	"go/token"
	"sort"
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
// that line next. So a well-formed directive whose analyzer ran on the
// package but suppressed nothing is also reported under "lint". The escape
// hatch for deliberately dormant directives (a finding that only fires on
// another platform, say) is `//lint:allow lint <reason>` on or above the
// directive's line; "lint" directives are themselves exempt from staleness,
// which keeps the rule well-founded.

const allowPrefix = "//lint:allow"

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	line     int
	analyzer string
	reason   string
	used     bool
}

// parseAllows extracts every //lint:allow directive in the package, reporting
// malformed ones (no analyzer, no reason, unknown analyzer name) as findings.
func parseAllows(pkg *Package, known map[string]bool) (map[string][]*allowDirective, []Finding) {
	byFile := make(map[string][]*allowDirective)
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
				if len(fields) == 0 {
					report(c.Pos(), "//lint:allow needs an analyzer name and a reason")
					continue
				}
				name := fields[0]
				if !known[name] {
					report(c.Pos(), "//lint:allow names unknown analyzer "+strconvQuote(name))
					continue
				}
				if len(fields) < 2 {
					report(c.Pos(), "//lint:allow "+name+" needs a reason")
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				byFile[pos.Filename] = append(byFile[pos.Filename], &allowDirective{
					line:     pos.Line,
					analyzer: name,
					reason:   strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return byFile, bad
}

// strconvQuote is a tiny local quote to keep the import list short.
func strconvQuote(s string) string { return `"` + s + `"` }

// applySuppressions drops findings covered by a well-formed allow directive,
// appends findings for malformed directives, and reports live directives
// that suppressed nothing (staleness).
func applySuppressions(pkg *Package, raw []Finding, known map[string]bool) []Finding {
	allows, bad := parseAllows(pkg, known)
	var out []Finding
	for _, f := range raw {
		if d := suppressor(f, allows[f.Pos.Filename]); d != nil {
			d.used = true
			continue
		}
		out = append(out, f)
	}
	// Staleness pass: every unused non-"lint" directive.
	var stale []Finding
	for file, dirs := range allows {
		for _, d := range dirs {
			if d.used || d.analyzer == "lint" {
				continue
			}
			stale = append(stale, Finding{
				Pos:      token.Position{Filename: file, Line: d.line},
				Analyzer: "lint",
				Message: "//lint:allow " + d.analyzer +
					" no longer suppresses any finding; delete it (or keep it deliberately with //lint:allow lint <reason>)",
			})
		}
	}
	sort.Slice(stale, func(i, j int) bool {
		if stale[i].Pos.Filename != stale[j].Pos.Filename {
			return stale[i].Pos.Filename < stale[j].Pos.Filename
		}
		return stale[i].Pos.Line < stale[j].Pos.Line
	})
	// Stale findings are suppressible by "lint" directives; malformed-
	// directive findings stay unsuppressable.
	for _, f := range stale {
		if d := suppressor(f, allows[f.Pos.Filename]); d != nil {
			d.used = true
			continue
		}
		out = append(out, f)
	}
	return append(out, bad...)
}

// suppressor returns the directive in the finding's file covering it, if
// any: the analyzer matches and the directive sits on the finding's line or
// the line above.
func suppressor(f Finding, dirs []*allowDirective) *allowDirective {
	for _, d := range dirs {
		if d.analyzer == f.Analyzer && (d.line == f.Pos.Line || d.line == f.Pos.Line-1) {
			return d
		}
	}
	return nil
}

// fieldSkipReason returns the //ckpt:skip reason attached to a struct field,
// with ok reporting whether the directive is present at all (the reason may
// still be empty, which ckptfields reports).
func fieldSkipReason(field *ast.Field) (reason string, ok bool) {
	return commentDirective("ckpt:skip", field.Doc, field.Comment)
}
