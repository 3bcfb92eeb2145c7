// Command brb-vet runs the repo's invariant analyzers (ctxfirst,
// stickyerr, sleepless, counterlint — see internal/analysis)
// over Go packages, loading every matched package (test files included)
// into one process. That is what lets counterlint check that each
// counter name is registered exactly once across the whole repository,
// not once per package. CI and `make lint` run:
//
//	go run ./cmd/brb-vet ./...
//
// and one analyzer subset over one package is:
//
//	go run ./cmd/brb-vet -run 'ctxfirst|stickyerr' ./internal/netstore/
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"

	"github.com/brb-repro/brb/internal/analysis"
)

func main() {
	runFilter := flag.String("run", "", "regexp selecting analyzers to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: brb-vet [-run regexp] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	analyzers, err := selectAnalyzers(*runFilter)
	if err != nil {
		fmt.Fprintln(os.Stderr, "brb-vet:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "brb-vet:", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(analyzers, pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "brb-vet:", err)
		os.Exit(2)
	}
	if len(pkgs) > 0 {
		for _, d := range diags {
			fmt.Printf("%s: %s (%s)\n", pkgs[0].Fset.Position(d.Pos), d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "brb-vet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func selectAnalyzers(filter string) ([]*analysis.Analyzer, error) {
	if filter == "" {
		return analysis.All(), nil
	}
	re, err := regexp.Compile(filter)
	if err != nil {
		return nil, fmt.Errorf("bad -run regexp: %v", err)
	}
	var out []*analysis.Analyzer
	for _, a := range analysis.All() {
		if re.MatchString(a.Name) {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-run %q matches no analyzer", filter)
	}
	return out, nil
}
