package lint

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// fixtureCases pairs each analyzer with a fixture package under
// testdata/src. TestAnalyzerFixtures runs them, and TestFixtureTableCoversSuite
// keeps the table in step with All() and the fixture directories.
var fixtureCases = []struct {
	analyzer *Analyzer
	dir      string
}{
	{ModelMut, "modelmut"},
	{AtomicLoad, "atomicload"},
	{MetricName, "metricname"},
	{ErrWrap, "errwrap"},
	{FloatEq, "floateq"},
	{HotAlloc, "hotalloc"},
	{HotAlloc, "hotalloc_mrf"},
	{CtxFlow, "ctxflow"},
}

// TestAnalyzerFixtures is the golden-test harness: each analyzer runs over
// its fixture package under testdata/src, and the surviving diagnostics must
// match the `// want "regexp"` annotations in the fixture sources exactly —
// one diagnostic per want, no extras, and nothing on suppressed lines.
func TestAnalyzerFixtures(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			runFixture(t, tc.analyzer, "./testdata/src/"+tc.dir)
		})
	}
}

// TestFixtureTableCoversSuite fails unless fixtureCases names every analyzer
// in All(), only those, and every directory under testdata/src except
// directive, which TestDirectiveHygiene runs: no analyzer goes without a
// fixture, and no fixture outlives its analyzer.
func TestFixtureTableCoversSuite(t *testing.T) {
	inSuite := map[*Analyzer]bool{}
	for _, a := range All() {
		inSuite[a] = true
	}
	tested := map[*Analyzer]bool{}
	dirs := map[string]bool{"directive": true}
	for _, tc := range fixtureCases {
		if !inSuite[tc.analyzer] {
			t.Errorf("fixture %s runs %s, which All() does not list", tc.dir, tc.analyzer.Name)
		}
		tested[tc.analyzer] = true
		dirs[tc.dir] = true
	}
	for _, a := range All() {
		if !tested[a] {
			t.Errorf("analyzer %s has no fixture in fixtureCases", a.Name)
		}
	}
	entries, err := os.ReadDir("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && !dirs[e.Name()] {
			t.Errorf("fixture directory testdata/src/%s is named by no fixtureCases entry", e.Name())
		}
	}
}

// TestDirectiveHygiene checks the two suppression meta-rules on their
// fixture: a reason-less directive is malformed, and a directive whose check
// never fires on its line is unused. Both surface under the "directive"
// pseudo-check.
func TestDirectiveHygiene(t *testing.T) {
	diags := loadAndRun(t, All(), "./testdata/src/directive")
	var malformed, unused int
	for _, d := range diags {
		if d.Check != "directive" {
			t.Errorf("unexpected non-directive diagnostic: %s", d)
			continue
		}
		switch {
		case strings.Contains(d.Message, "malformed"):
			malformed++
		case strings.Contains(d.Message, "unused"):
			unused++
		default:
			t.Errorf("unclassified directive diagnostic: %s", d)
		}
	}
	if malformed != 1 || unused != 1 {
		t.Errorf("got %d malformed + %d unused directive diagnostics, want 1 + 1:\n%s",
			malformed, unused, renderDiags(diags))
	}
}

// TestAllStableOrder guards the suite registry: names must be unique, sorted,
// and runnable (non-nil Run), so -checks and the docs stay trustworthy.
func TestAllStableOrder(t *testing.T) {
	all := All()
	if len(all) < 6 {
		t.Fatalf("suite has %d analyzers, want at least 6", len(all))
	}
	for i, a := range all {
		if a.Run == nil || a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %d (%q) is missing Name, Doc, or Run", i, a.Name)
		}
		if i > 0 && all[i-1].Name >= a.Name {
			t.Errorf("All() not sorted by name: %q before %q", all[i-1].Name, a.Name)
		}
	}
}

// wantAnnotation is one parsed `// want "regexp"` marker.
type wantAnnotation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// runFixture loads a fixture package, runs one analyzer, and checks the
// diagnostics against the fixture's want annotations bijectively.
func runFixture(t *testing.T, a *Analyzer, pattern string) {
	t.Helper()
	pkgs, err := Load(LoadConfig{}, pattern)
	if err != nil {
		t.Fatalf("Load(%s): %v", pattern, err)
	}
	diags, err := Run(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	var wants []*wantAnnotation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					expr, err := strconv.Unquote(strings.TrimSpace(strings.TrimPrefix(text, "want")))
					if err != nil {
						t.Fatalf("%s: unparseable want annotation %q: %v", pkg.Fset.Position(c.Pos()), text, err)
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pkg.Fset.Position(c.Pos()), expr, err)
					}
					pos := pkg.Fset.Position(c.Pos())
					wants = append(wants, &wantAnnotation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want annotations; every analyzer fixture needs at least one true positive", pattern)
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

// loadAndRun is the shared load-then-analyze helper for non-golden tests.
func loadAndRun(t *testing.T, analyzers []*Analyzer, pattern string) []Diagnostic {
	t.Helper()
	pkgs, err := Load(LoadConfig{}, pattern)
	if err != nil {
		t.Fatalf("Load(%s): %v", pattern, err)
	}
	diags, err := Run(pkgs, analyzers)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return diags
}

// renderDiags formats diagnostics for failure messages.
func renderDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}
