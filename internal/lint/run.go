package lint

import (
	"fmt"
	"go/token"
	"io"
	"sort"
)

// Run executes the given analyzers (all registered ones when nil) over the
// loaded packages and returns the surviving findings sorted by position.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Finding {
	if analyzers == nil {
		analyzers = Analyzers()
	}
	prog := NewProgram(pkgs)
	var findings []Finding
	for _, pkg := range pkgs {
		ignores, bad := buildIgnoreIndex(fset, pkg.Files)
		findings = append(findings, bad...)
		inspector := newInspector(pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Fset:      fset,
				Pkg:       pkg,
				Inspector: inspector,
				Prog:      prog,
				check:     a.Name,
				severity:  a.Severity,
				ignores:   ignores,
				findings:  &findings,
			}
			a.Run(pass)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Check < b.Check
	})
	return findings
}

// WriteText prints findings one per line in "file:line: [check] message"
// form.
func WriteText(w io.Writer, findings []Finding) error {
	for _, f := range findings {
		if _, err := fmt.Fprintln(w, f.String()); err != nil {
			return err
		}
	}
	return nil
}
