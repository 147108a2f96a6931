// Command tslint runs the repo's static-analysis suite (internal/lint): the
// seven analyzers that enforce the pipeline's concurrency, immutability and
// observability invariants — modelmut, atomicload, metricname, errwrap,
// floateq, plus the callgraph-aware hotalloc and ctxflow — and directive
// hygiene for //lint:ignore / //lint:hotpath-ok suppressions.
//
// Usage:
//
//	tslint [flags] [packages]
//
//	tslint ./...                       # whole repo (CI's required lint job)
//	tslint -checks floateq ./...       # one analyzer
//	tslint -json ./...                 # one JSON finding per line
//	tslint -hotpath-json out.json ./...# write the hot-set manifest
//	tslint -list                       # print the suite with docs
//
// Diagnostics print as file:line:col: message (check); with -json, each
// finding (suppressed ones included) prints as one JSON object per line with
// file, line, col, check, message and suppressed fields, for CI annotation
// renderers.
//
// Exit status is 0 when the tree is clean, 2 when any diagnostic survives
// suppression, and 1 on driver errors (unloadable packages, unknown checks).
// Note the polarity: a finding is the *expected* failure mode and scripts
// match on 2; a 1 means the run itself is broken and its output is void.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

// jsonFinding is the -json line format.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Check      string `json:"check"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func main() {
	var (
		checks  = flag.String("checks", "", "comma-separated analyzer names to run (default: all)")
		list    = flag.Bool("list", false, "list the analyzers and exit")
		jsonOut = flag.Bool("json", false, "emit one JSON finding per line (suppressed findings included)")
		hotpath = flag.String("hotpath-json", "", "write the hot-set manifest (lint.HotSet) to this file")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tslint:", err)
		os.Exit(1)
	}

	pkgs, err := lint.Load(lint.LoadConfig{}, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tslint:", err)
		os.Exit(1)
	}
	if *hotpath != "" {
		if err := writeHotpath(*hotpath, pkgs); err != nil {
			fmt.Fprintln(os.Stderr, "tslint:", err)
			os.Exit(1)
		}
	}
	all, err := lint.RunAll(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tslint:", err)
		os.Exit(1)
	}
	surviving := 0
	enc := json.NewEncoder(os.Stdout)
	for _, d := range all {
		if !d.Suppressed {
			surviving++
		}
		switch {
		case *jsonOut:
			_ = enc.Encode(jsonFinding{
				File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
				Check: d.Check, Message: d.Message, Suppressed: d.Suppressed,
			})
		case !d.Suppressed:
			fmt.Println(d)
		}
	}
	if surviving > 0 {
		fmt.Fprintf(os.Stderr, "tslint: %d diagnostic(s) in %d package(s)\n", surviving, len(pkgs))
		os.Exit(2)
	}
}

// writeHotpath renders the hot-set manifest for the loaded packages.
func writeHotpath(path string, pkgs []*lint.Package) error {
	man := lint.HotSet(pkgs)
	buf, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// selectAnalyzers resolves the -checks flag against the registered suite.
func selectAnalyzers(checks string) ([]*lint.Analyzer, error) {
	all := lint.All()
	if checks == "" {
		return all, nil
	}
	byName := make(map[string]*lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(checks, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (run -list for the suite)", name)
		}
		out = append(out, a)
	}
	return out, nil
}
