package speedest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// registeredFamilies returns every metric family the program registers: the
// constant first argument of each Counter, Gauge, Histogram or HDRHistogram
// call in non-test Go outside bench/ (its own module) and testdata/,
// resolving a package-level string constant the way obs.RegisterBuildInfo
// passes its name.
func registeredFamilies(t *testing.T) map[string]string {
	t.Helper()
	families := map[string]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		consts := map[string]string{}
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.CONST {
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							if v, ok := stringLit(vs.Values[i]); ok {
								consts[name.Name] = v
							}
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Counter", "Gauge", "Histogram", "HDRHistogram":
			default:
				return true
			}
			name, ok := stringLit(call.Args[0])
			if id, isIdent := call.Args[0].(*ast.Ident); isIdent {
				name, ok = consts[id.Name]
			}
			if ok && strings.HasPrefix(name, "trendspeed_") {
				families[name] = path
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return families
}

// stringLit returns the value of a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	v, err := strconv.Unquote(lit.Value)
	return v, err == nil
}

// TestReadmeMetricTable holds README's metric table to the families the
// program registers: each registered family has exactly one row of its own,
// and every row names a registered family.
func TestReadmeMetricTable(t *testing.T) {
	families := registeredFamilies(t)
	if len(families) == 0 {
		t.Fatal("found no registered metric family")
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| `(trendspeed_[a-z0-9_]+)(\\{[^}]*\\})?` \\|")
	rows := map[string]int{}
	for _, m := range row.FindAllStringSubmatch(string(readme), -1) {
		rows[m[1]]++
	}
	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if n := rows[name]; n != 1 {
			t.Errorf("%s (registered in %s) has %d rows in README's metric table, want 1", name, families[name], n)
		}
	}
	for name := range rows {
		if _, ok := families[name]; !ok {
			t.Errorf("README's metric table has a row for %s, which nothing registers", name)
		}
	}
}
