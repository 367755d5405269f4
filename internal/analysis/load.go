package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
)

// The loader resolves package patterns and import dependencies through the go
// command (`go list`), which the module already requires to build, and
// type-checks the target packages from source against compiler export data.
// This keeps the framework stdlib-only — no golang.org/x/tools/go/packages —
// while still giving analyzers full go/types information. Export data for
// dependencies comes from `go list -deps -export`, which populates the build
// cache as a side effect; the gc importer then reads those files directly.

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path, e.g. repro/internal/sim
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// goList runs `go list` in dir with the given format and arguments and
// returns the output lines.
func goList(dir, format string, args []string) ([]string, error) {
	cmd := exec.Command("go", append([]string{"list", "-f", format}, args...)...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %w", strings.Join(args, " "), err)
	}
	var lines []string
	for _, l := range strings.Split(string(out), "\n") {
		if l != "" {
			lines = append(lines, l)
		}
	}
	return lines, nil
}

// loadCache memoizes Load results for the life of the process, keyed by
// (absolute dir, patterns). The golden-file tests load the same fixture trees
// over and over; a cache hit skips both the go command and the type-checker.
// Packages are treated as immutable after loading (analyzers only read them),
// so sharing the slice is safe. The cache deliberately ignores on-disk edits
// made after the first load — simlint is a one-shot process, and the tests
// that share a cache entry all want the same snapshot.
var loadCache sync.Map // key string -> *loadEntry

type loadEntry struct {
	once sync.Once
	pkgs []*Package
	err  error
}

// Load resolves patterns (as the go command understands them, e.g. "./..." or
// an explicit directory — explicit paths may name testdata packages, which
// "..." deliberately skips) relative to dir, and returns the matched packages
// parsed and type-checked. Test files are not loaded: the invariants simlint
// enforces are about the simulator, not its harnesses. Results are memoized
// per (dir, patterns) for the life of the process.
func Load(dir string, patterns ...string) ([]*Package, error) {
	key := dir
	if abs, err := filepath.Abs(dir); err == nil {
		key = abs
	}
	key += "\x00" + strings.Join(patterns, "\x00")
	e, _ := loadCache.LoadOrStore(key, &loadEntry{})
	entry := e.(*loadEntry)
	entry.once.Do(func() {
		entry.pkgs, entry.err = load(dir, patterns)
	})
	return entry.pkgs, entry.err
}

// load is the uncached path: one `go list -deps -export` invocation yields
// the target set ({{.DepOnly}} is false exactly for packages the patterns
// named), the source file lists, and the export data for every dependency in
// a single go-command run. -export compiles what is stale, so this is the
// slow step on a cold build cache and near-free afterwards.
func load(dir string, patterns []string) ([]*Package, error) {
	lines, err := goList(dir,
		`{{.ImportPath}}{{"\t"}}{{.DepOnly}}{{"\t"}}{{.Export}}{{"\t"}}{{.Dir}}{{"\t"}}{{range .GoFiles}}{{.}} {{end}}`,
		append([]string{"-deps", "-export"}, patterns...))
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(lines))
	var targets []string
	for _, l := range lines {
		parts := strings.SplitN(l, "\t", 5)
		if len(parts) != 5 {
			return nil, fmt.Errorf("analysis: unexpected go list line %q", l)
		}
		if parts[2] != "" {
			exports[parts[0]] = parts[2]
		}
		if parts[1] == "false" {
			targets = append(targets, l)
		}
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(file)
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", lookup)
	var pkgs []*Package
	for _, line := range targets {
		parts := strings.SplitN(line, "\t", 5)
		path, pkgDir, fileList := parts[0], parts[3], strings.Fields(parts[4])
		if len(fileList) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range fileList {
			f, err := parser.ParseFile(fset, filepath.Join(pkgDir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("analysis: %w", err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
		tpkg, err := conf.Check(path, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
		}
		pkgs = append(pkgs, &Package{
			Path:  path,
			Dir:   pkgDir,
			Fset:  fset,
			Files: files,
			Types: tpkg,
			Info:  info,
		})
	}
	return pkgs, nil
}
