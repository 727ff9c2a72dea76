package lint

import (
	"go/token"
	"strings"
)

// layerRules enforces the package DAG. Keys are import-path suffixes
// relative to the module (so fixture trees with a different module prefix
// exercise the same rules); values are the suffixes that package must not
// import. The root package is the only public surface, so examples must
// depend on it alone.
var layerRules = map[string][]string{
	"internal/graph":   {"internal/core", "internal/experiment", "internal/baseline"},
	"internal/geo":     {"internal/core", "internal/experiment", "internal/baseline"},
	"internal/utility": {"internal/core", "internal/experiment", "internal/baseline"},
	// core defines the ObjectiveModel interface; the concrete objective
	// models live above it in internal/model. The reverse import would be a
	// cycle by design, not just by accident.
	"internal/core": {"internal/experiment", "internal/baseline", "internal/model"},
	// Numeric kernels sit at the bottom with obs: every layer may call
	// them, they may call nothing domain-shaped.
	"internal/stats": {
		"internal/graph", "internal/geo", "internal/utility", "internal/core",
		"internal/model", "internal/flow", "internal/experiment",
		"internal/baseline", "internal/serve", "internal/invariant",
	},
	// Objective models plug into core's interface from above; they must
	// stay below the harness/experiment layers that consume them and out of
	// testutil (non-test code must not link the testing package).
	"internal/model": {
		"internal/experiment", "internal/baseline", "internal/invariant",
		"internal/serve", "internal/testutil",
	},
	// The property-testing harness sits above the solvers and generators it
	// audits but below the experiment/baseline layer (and must never leak
	// into it — production figures do not depend on the test harness). It
	// also must not use testutil: that package imports testing, which a
	// non-test library (cmd/soak links it) must not drag in.
	"internal/invariant": {
		"internal/experiment", "internal/baseline", "internal/testutil",
	},
	"internal/experiment": {"internal/invariant", "internal/serve"},
	"internal/baseline":   {"internal/invariant", "internal/serve"},
	// The query service sits above core but outside the research stack: it
	// must not reach into experiments/baselines, and it must not import the
	// invariant harness (invariant imports serve for serve-identity — the
	// reverse edge would be a cycle) or testutil (non-test code must not
	// link the testing package).
	"internal/serve": {
		"internal/experiment", "internal/baseline", "internal/invariant",
		"internal/testutil",
	},
}

func init() {
	Register(&Analyzer{
		Name: "layering",
		Doc:  "enforces the package DAG: obs and wire (stdlib-only) at the bottom so every layer can use them, graph/geo/utility below core, core below experiment/baseline, examples on the root only",
		Run:  runLayering,
	})
}

// stdlibOnly packages sit at the bottom of the DAG and import nothing
// from the module: obs so every layer can report into it, wire because
// the graph, flow and serve codecs are built on it.
var stdlibOnly = map[string]bool{"internal/obs": true, "internal/wire": true}

func runLayering(p *Pass) {
	module, rel := splitModulePath(p.Pkg.Path)
	if stdlibOnly[rel] {
		for _, imp := range p.Pkg.Imports {
			if impModule, impRel := splitModulePath(imp); impModule == module && impRel != "" {
				p.Reportf(importPos(p, imp), "layer violation: %s must not import %s", rel, impRel)
			}
		}
	}
	if forbidden, ok := layerRules[rel]; ok {
		for _, imp := range p.Pkg.Imports {
			_, impRel := splitModulePath(imp)
			for _, f := range forbidden {
				if impRel == f {
					p.Reportf(importPos(p, imp),
						"layer violation: %s must not import %s", rel, f)
				}
			}
		}
	}
	// Examples demonstrate the public API: the bare module root is the
	// only module-internal import they may use.
	if strings.HasPrefix(rel, "examples/") {
		for _, imp := range p.Pkg.Imports {
			if imp != module && strings.HasPrefix(imp, module+"/") {
				p.Reportf(importPos(p, imp),
					"layer violation: examples must import only the public %q package, not %s", module, imp)
			}
		}
	}
}

// splitModulePath splits "mod/internal/x" into the module prefix and the
// path relative to it. Paths without a slash (the root package or stdlib
// single-segment imports) have an empty relative part.
func splitModulePath(path string) (module, rel string) {
	// The module path is the first segment for this repo ("roadside") and
	// for fixture trees; multi-segment module paths are not used here.
	if i := strings.Index(path, "/"); i >= 0 {
		return path[:i], path[i+1:]
	}
	return path, ""
}

// importPos locates the import spec for path so the finding points at the
// offending line rather than the package clause.
func importPos(p *Pass, path string) token.Pos {
	for _, f := range p.Pkg.Files {
		for _, spec := range f.Imports {
			if strings.Trim(spec.Path.Value, `"`) == path {
				return spec.Pos()
			}
		}
	}
	if len(p.Pkg.Files) > 0 {
		return p.Pkg.Files[0].Pos()
	}
	return token.NoPos
}
