// Package lint is the reproduction's static-analysis suite: a
// zero-dependency analyzer driver (stdlib go/ast + go/types + go/importer,
// packages enumerated with `go list -json`) plus the repo-specific analyzers
// that turn the pipeline's concurrency, immutability and observability
// conventions into compiler-enforced invariants.
//
// PRs 1–3 made the serving system's correctness rest on conventions that
// `go vet` and staticcheck cannot see: core.View is an immutable snapshot
// that only its constructor writes and that the constructor never publishes
// (modelmut), an estimation round loads a published atomic.Pointer exactly
// once (atomicload), metric names are trendspeed_-prefixed and registered at
// one site (metricname), validation errors cross the internal/api boundary
// wrapping a sentinel via %w (errwrap), and inference code never compares
// floats with == (floateq). Each analyzer documents the invariant it
// encodes; DESIGN.md §9 maps analyzers to the PR that introduced the
// invariant. Conventions the API can carry need no analyzer: obs spans end
// by construction, since obs.Time is the only way to start one.
//
// On top of the single-function checks sits an intra-package static
// callgraph (callgraph.go) powering two dataflow analyzers: the estimation
// hot path must not allocate (hotalloc), and contexts must flow into every
// cancellable callee (ctxflow). DESIGN.md §14 documents the graph's
// construction and its soundness caveats.
//
// Diagnostics can be suppressed with a directive comment on the offending
// line or the line directly above it:
//
//	//lint:ignore <check> <reason>
//	//lint:hotpath-ok <reason>     (sugar for //lint:ignore hotalloc)
//
// The reason is mandatory: a suppression without a recorded justification is
// itself reported. cmd/tslint is the CLI driver; `go run ./cmd/tslint ./...`
// exits with status 2 if any diagnostic survives suppression.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects a type-checked package through
// the Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name is the check identifier used in diagnostics and in
	// //lint:ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant the check
	// enforces.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass) error
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AtomicLoad,
		CtxFlow,
		ErrWrap,
		FloatEq,
		HotAlloc,
		MetricName,
		ModelMut,
	}
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.Analyzer.Name,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding: where, what, and which check produced it.
// Suppressed marks findings excused by a //lint:ignore (or //lint:hotpath-ok)
// directive; Run filters them out, RunAll keeps them for tooling that renders
// the full picture (cmd/tslint -json).
type Diagnostic struct {
	Check      string
	Pos        token.Position
	Message    string
	Suppressed bool
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Check)
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	check string
	line  int // line the directive comment starts on
	used  bool
	pos   token.Pos
}

// directivePrefix is what a suppression comment must start with.
const directivePrefix = "lint:ignore"

// hotpathPrefix is the dedicated hot-path suppression: //lint:hotpath-ok
// <reason> is sugar for //lint:ignore hotalloc <reason>, so the allocation
// waivers the reviewers grep for stand out from generic suppressions.
const hotpathPrefix = "lint:hotpath-ok"

// parseDirectives extracts the //lint:ignore and //lint:hotpath-ok
// directives of a file, reporting malformed ones (missing check name or
// missing reason) as diagnostics so a suppression can never silently record
// no justification.
func parseDirectives(fset *token.FileSet, f *ast.File, report func(Diagnostic)) []ignoreDirective {
	var out []ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if strings.HasPrefix(text, hotpathPrefix) {
				reason := strings.TrimSpace(strings.TrimPrefix(text, hotpathPrefix))
				if reason == "" {
					report(Diagnostic{
						Check:   "directive",
						Pos:     fset.Position(c.Pos()),
						Message: "malformed //lint:hotpath-ok directive: want //lint:hotpath-ok <reason>",
					})
					continue
				}
				out = append(out, ignoreDirective{
					check: HotAlloc.Name,
					line:  fset.Position(c.Pos()).Line,
					pos:   c.Pos(),
				})
				continue
			}
			if !strings.HasPrefix(text, directivePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, directivePrefix))
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				report(Diagnostic{
					Check:   "directive",
					Pos:     fset.Position(c.Pos()),
					Message: "malformed //lint:ignore directive: want //lint:ignore <check> <reason>",
				})
				continue
			}
			out = append(out, ignoreDirective{
				check: fields[0],
				line:  fset.Position(c.Pos()).Line,
				pos:   c.Pos(),
			})
		}
	}
	return out
}

// Run executes the analyzers over the packages and returns the diagnostics
// that survive //lint:ignore suppression, sorted by position. A directive
// suppresses diagnostics of its check on its own line and on the line
// directly below it; directives that suppress nothing are reported as
// unused, so stale suppressions cannot outlive the violation they excused.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	all, err := RunAll(pkgs, analyzers)
	if err != nil {
		return nil, err
	}
	kept := all[:0]
	for _, d := range all {
		if !d.Suppressed {
			kept = append(kept, d)
		}
	}
	return kept, nil
}

// RunAll is Run without the suppression filter: excused diagnostics are
// returned too, marked Suppressed, so tooling (cmd/tslint -json) can render
// the complete picture including the waivers in force.
func RunAll(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range pkgs {
		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &raw,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
		all = append(all, suppress(pkg, raw, analyzers)...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return all, nil
}

// suppress applies one package's //lint:ignore directives to its raw
// diagnostics — marking excused findings Suppressed rather than dropping
// them — and appends directive hygiene findings (malformed or unused
// directives for checks this run knows about).
func suppress(pkg *Package, raw []Diagnostic, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var kept []Diagnostic
	directives := make(map[string][]ignoreDirective, len(pkg.Files))
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		directives[name] = parseDirectives(pkg.Fset, f, func(d Diagnostic) {
			kept = append(kept, d)
		})
	}
	for _, d := range raw {
		file := directives[d.Pos.Filename]
		for i := range file {
			dir := &file[i]
			if dir.check == d.Check && (dir.line == d.Pos.Line || dir.line == d.Pos.Line-1) {
				dir.used = true
				d.Suppressed = true
			}
		}
		kept = append(kept, d)
	}
	for _, file := range directives {
		for _, dir := range file {
			if !dir.used && known[dir.check] {
				kept = append(kept, Diagnostic{
					Check:   "directive",
					Pos:     pkg.Fset.Position(dir.pos),
					Message: fmt.Sprintf("unused //lint:ignore directive for check %q", dir.check),
				})
			}
		}
	}
	return kept
}
