// Package analysis is brb-vet's analyzer framework: a small,
// dependency-free skeleton of golang.org/x/tools/go/analysis shaped so
// the four project analyzers (ctxfirst, stickyerr, sleepless,
// counterlint) could migrate to the real framework by changing
// imports. The repo's invariants — context-first APIs, sticky fail-stop
// errors, sleep-free tests, the *_total counter registry — are
// conventions the compiler cannot check; this package makes them
// machine-checked so the heavy refactors the ROADMAP queues (hot-path
// rework, disk overflow tier, erasure striping) cannot silently break
// them.
//
// Suppression: a "//brb:allow <analyzer> <reason>" comment disables the
// named analyzer on its own line and the line directly below it. The
// reason is mandatory; a malformed brb:allow is itself a diagnostic.
// Suppressions are the escape hatch for sites where a convention is
// deliberately, documentedly violated — never for convenience.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Run is called once per loaded
// package with a fully type-checked Pass.
type Analyzer struct {
	Name string // short lower-case identifier, used in //brb:allow
	Doc  string // one-paragraph description of the invariant
	Run  func(*Pass) error
}

// Pass carries one package's parsed and type-checked state through one
// analyzer. Diagnostics go through Reportf so suppression handling is
// uniform across analyzers.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Shared is one map per driver run (all packages, all analyzers):
	// cross-package state like counterlint's registered-name index.
	// Keys are namespaced by analyzer name.
	Shared map[string]any

	// report receives every non-suppressed diagnostic.
	report func(Diagnostic)
	// allow is the suppression index for this package's files.
	allow *allowIndex
}

// Diagnostic is one finding, positioned at Pos.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf emits a diagnostic unless a //brb:allow comment for this
// analyzer covers the position's line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allow.suppressed(p.Analyzer.Name, position) {
		return
	}
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether pos lies in a _test.go file. Several
// analyzers scope themselves to test files (sleepless) or away from
// them (stickyerr, counterlint's once-check).
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// PkgPathIs reports whether path is, or ends with, the given
// slash-separated suffix ("internal/wire" matches both the real module
// path and test fixtures that mirror it).
func PkgPathIs(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// PathHasSegment reports whether the import path contains seg as a
// whole path element (used for the cmd/ and examples/ exemptions).
func PathHasSegment(path, seg string) bool {
	for _, part := range strings.Split(path, "/") {
		if part == seg {
			return true
		}
	}
	return false
}

// CalleeFunc resolves the *types.Func a call expression invokes, or nil
// for calls through function-typed values, built-ins, and conversions.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	if fn, ok := p.TypesInfo.Uses[id].(*types.Func); ok {
		return fn
	}
	return nil
}

// RecvTypeName returns the bare name of fn's receiver type ("" for
// plain functions), with any pointer stripped.
func RecvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// allowIndex maps file -> line -> analyzers suppressed on that line.
type allowIndex struct {
	fset  *token.FileSet
	lines map[string]map[int]map[string]bool // filename -> line -> analyzer set
}

const allowPrefix = "//brb:allow"

// buildAllowIndex scans every comment in files for brb:allow markers.
// Malformed markers (missing analyzer name or reason, or an unknown
// analyzer) are reported through report directly: a suppression that
// does not say what it suppresses, or why, suppresses nothing.
func buildAllowIndex(fset *token.FileSet, files []*ast.File, known map[string]bool, report func(Diagnostic)) *allowIndex {
	idx := &allowIndex{fset: fset, lines: make(map[string]map[int]map[string]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					report(Diagnostic{Pos: c.Pos(), Analyzer: "brbvet",
						Message: "malformed //brb:allow: want \"//brb:allow <analyzer> <reason>\""})
					continue
				}
				name := fields[0]
				if !known[name] {
					report(Diagnostic{Pos: c.Pos(), Analyzer: "brbvet",
						Message: fmt.Sprintf("//brb:allow names unknown analyzer %q", name)})
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := idx.lines[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]bool)
					idx.lines[pos.Filename] = byLine
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if byLine[line] == nil {
						byLine[line] = make(map[string]bool)
					}
					byLine[line][name] = true
				}
			}
		}
	}
	return idx
}

func (idx *allowIndex) suppressed(analyzer string, pos token.Position) bool {
	byLine := idx.lines[pos.Filename]
	if byLine == nil {
		return false
	}
	return byLine[pos.Line][analyzer]
}

// Run executes analyzers over pkgs and returns every diagnostic sorted
// by position. This is the in-process driver used by both cmd/brb-vet's
// standalone mode and analysistest.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range All() {
		known[a.Name] = true
	}
	var diags []Diagnostic
	collect := func(d Diagnostic) { diags = append(diags, d) }
	shared := make(map[string]any)
	for _, pkg := range pkgs {
		// One allow index per package; malformed-marker diagnostics are
		// emitted once per package, not once per analyzer.
		allow := buildAllowIndex(pkg.Fset, pkg.Syntax, known, collect)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Shared:    shared,
				report:    collect,
				allow:     allow,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	if len(pkgs) > 0 {
		fset := pkgs[0].Fset
		sort.SliceStable(diags, func(i, j int) bool {
			pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
			if pi.Filename != pj.Filename {
				return pi.Filename < pj.Filename
			}
			if pi.Line != pj.Line {
				return pi.Line < pj.Line
			}
			return pi.Column < pj.Column
		})
	}
	return diags, nil
}

// All returns the full brb-vet suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		CtxFirst,
		StickyErr,
		Sleepless,
		CounterLint,
	}
}
