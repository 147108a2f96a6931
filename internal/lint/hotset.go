package lint

import "sort"

// HotFunc is one entry of the hot-set manifest: a declared function the
// callgraph proves reachable from the hot roots. Literals collapse into
// their enclosing declaration.
type HotFunc struct {
	Package string `json:"package"`
	Func    string `json:"func"`
}

// HotManifest is the JSON document cmd/tslint -hotpath-json writes and CI
// diffs against the committed lint/hotpath.json: the root registry and the
// full hot set. Any change to the reachable frontier — a new
// allocation-sensitive function, a root added, a refactor that splits a hot
// function — shows up as a manifest diff a reviewer must accept by
// regenerating the committed copy.
type HotManifest struct {
	Roots  []string  `json:"roots"`
	HotSet []HotFunc `json:"hot_set"`
}

// HotSet computes the hot-function manifest over the loaded packages: for
// each package, the declarations whose scope (or any nested literal scope)
// is reachable from the registered hot roots.
func HotSet(pkgs []*Package) HotManifest {
	var man HotManifest
	for _, r := range hotRoots {
		if r.recv != "" {
			man.Roots = append(man.Roots, r.pkg+"."+r.recv+"."+r.fn)
		} else {
			man.Roots = append(man.Roots, r.pkg+"."+r.fn)
		}
	}
	sort.Strings(man.Roots)
	for _, pkg := range pkgs {
		pass := &Pass{
			Analyzer: HotAlloc,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
		}
		g := buildCallGraph(pass)
		hot := hotScopes(pass, g)
		seen := map[string]bool{}
		for s, ok := range hot {
			if !ok {
				continue
			}
			d := s.decl()
			if d.fn == nil || seen[d.name] {
				continue
			}
			seen[d.name] = true
			man.HotSet = append(man.HotSet, HotFunc{Package: pkg.ImportPath, Func: funcDisplayName(d.fn)})
		}
	}
	sort.Slice(man.HotSet, func(i, j int) bool {
		a, b := man.HotSet[i], man.HotSet[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		return a.Func < b.Func
	})
	return man
}
