package analysis

import (
	"go/ast"
	"go/token"
	"regexp"
)

// CounterLint enforces the internal/metrics counter registry scheme:
// every counter name is a string literal matching
// ^[a-z][a-z0-9_]+_total$, resolved exactly once into a package-level
// var. Literal names keep `grep` and dashboards authoritative; the
// once-rule pins the documented registry idiom (resolve at init, one
// atomic op per event) and catches copy-paste name collisions between
// subsystems before two call sites silently share one counter. _test.go
// files are exempt: tests register scratch counters.
var CounterLint = &Analyzer{
	Name: "counterlint",
	Doc: "metrics.GetCounter names must be *_total string literals, " +
		"resolved once into a package-level var, and registered by " +
		"exactly one call site",
	Run: runCounterLint,
}

var counterNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]+_total$`)

// counterRegistration records the first registration site per name
// across the whole driver run (all packages), via Pass.Shared.
type counterRegistration struct {
	pkg string
	pos token.Position
}

func runCounterLint(pass *Pass) error {
	// The registry implementation itself is exempt.
	if PkgPathIs(pass.Pkg.Path(), "internal/metrics") {
		return nil
	}
	seen, ok := pass.Shared["counterlint.names"].(map[string]counterRegistration)
	if !ok {
		seen = make(map[string]counterRegistration)
		pass.Shared["counterlint.names"] = seen
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		// Package-level var declarations are the sanctioned home for
		// registration calls; remember their extent.
		atVarLevel := make(map[*ast.CallExpr]bool)
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			ast.Inspect(gd, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if isGetCounter(pass, call) {
						atVarLevel[call] = true
					}
				}
				return true
			})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isGetCounter(pass, call) || len(call.Args) != 1 {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				pass.Reportf(call.Pos(), "GetCounter name must be a string literal (greppable, dashboard-stable), not a computed value")
				return true
			}
			name := lit.Value[1 : len(lit.Value)-1] // strip quotes; names never need escapes
			if !counterNameRE.MatchString(name) {
				pass.Reportf(lit.Pos(), "GetCounter name %q must match %s", name, counterNameRE)
			}
			if !atVarLevel[call] {
				pass.Reportf(call.Pos(), "GetCounter(%q) outside a package-level var: resolve counters once at init, not per event", name)
				return true
			}
			if prev, dup := seen[name]; dup {
				pass.Reportf(call.Pos(), "name %q already registered at %s: each counter has exactly one owning call site", name, prev.pos)
			} else {
				seen[name] = counterRegistration{pkg: pass.Pkg.Path(), pos: pass.Fset.Position(call.Pos())}
			}
			return true
		})
	}
	return nil
}

// isGetCounter reports whether call targets internal/metrics'
// GetCounter.
func isGetCounter(pass *Pass, call *ast.CallExpr) bool {
	fn := pass.CalleeFunc(call)
	return fn != nil && fn.Pkg() != nil && PkgPathIs(fn.Pkg().Path(), "internal/metrics") && fn.Name() == "GetCounter"
}
