package lint

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// loadFixtures loads the fixture module under testdata/src once per test
// binary — the load is pure parse + type-check and nothing mutates the
// packages, so every test can share it.
var fixtureCache struct {
	once   sync.Once
	loader *Loader
	pkgs   []*Package
	err    error
}

func loadFixtures(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	fixtureCache.once.Do(func() {
		fixtureCache.loader = NewLoader(filepath.Join("testdata", "src"), "fixture")
		fixtureCache.pkgs, fixtureCache.err = fixtureCache.loader.Load()
	})
	if fixtureCache.err != nil {
		t.Fatalf("load fixtures: %v", fixtureCache.err)
	}
	if len(fixtureCache.pkgs) == 0 {
		t.Fatal("no fixture packages loaded")
	}
	return fixtureCache.loader, fixtureCache.pkgs
}

var wantMarker = regexp.MustCompile(`// want:([a-z]+)`)

// collectWants scans every fixture file for "// want:check" markers and
// returns the expected "file:line:check" set.
func collectWants(t *testing.T, root string) map[string]bool {
	t.Helper()
	wants := map[string]bool{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantMarker.FindAllStringSubmatch(sc.Text(), -1) {
				wants[fmt.Sprintf("%s:%d:%s", path, line, m[1])] = true
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatalf("collect wants: %v", err)
	}
	return wants
}

// TestFixtures is the positive/negative matrix for every analyzer: each
// "// want:check" marker must produce exactly that finding, and no
// unexpected finding may appear anywhere in the fixture tree.
func TestFixtures(t *testing.T) {
	l, pkgs := loadFixtures(t)
	findings := Run(l.Fset(), pkgs, nil)

	var directiveFindings []Finding
	got := map[string]bool{}
	for _, f := range findings {
		if f.Check == "lintdirective" {
			directiveFindings = append(directiveFindings, f)
			continue
		}
		got[fmt.Sprintf("%s:%d:%s", f.File, f.Line, f.Check)] = true
	}
	want := collectWants(t, filepath.Join("testdata", "src"))

	for key := range want {
		if !got[key] {
			t.Errorf("missing expected finding %s", key)
		}
	}
	for key := range got {
		if !want[key] {
			t.Errorf("unexpected finding %s", key)
		}
	}

	// The malformed directive in internal/ignored is reported once, under
	// its own pseudo-check (the marker syntax cannot express this without
	// turning the malformed directive into a well-formed one).
	if len(directiveFindings) != 1 {
		t.Fatalf("want exactly 1 lintdirective finding, got %d: %v", len(directiveFindings), directiveFindings)
	}
	if base := filepath.Base(directiveFindings[0].File); base != "ignored.go" {
		t.Errorf("lintdirective finding in %s, want ignored.go", base)
	}
}

// TestAnalyzerCoverage pins that every registered analyzer has at least
// one positive fixture case, so a new analyzer cannot land untested.
func TestAnalyzerCoverage(t *testing.T) {
	want := collectWants(t, filepath.Join("testdata", "src"))
	covered := map[string]bool{}
	for key := range want {
		covered[key[strings.LastIndex(key, ":")+1:]] = true
	}
	for _, a := range Analyzers() {
		if !covered[a.Name] {
			t.Errorf("analyzer %s has no positive fixture case under testdata/src", a.Name)
		}
	}
}

// TestRegistry checks registration invariants.
func TestRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, a := range Analyzers() {
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc line", a.Name)
		}
		names[a.Name] = true
	}
	for _, name := range []string{
		"floatcmp", "layering", "goroutineguard", "errdrop", "seededrand", "mutatearg",
		"maporder", "detrand", "floataccum", "atomicmix", "ctxflow", "errcode",
	} {
		if !names[name] {
			t.Errorf("analyzer %s not registered", name)
		}
	}
	// detrand is the advisory tier; everything else gates at error.
	for _, a := range Analyzers() {
		want := SeverityError
		if a.Name == "detrand" {
			want = SeverityWarn
		}
		if a.Severity != want {
			t.Errorf("analyzer %s severity = %q, want %q", a.Name, a.Severity, want)
		}
	}
	if Lookup("floatcmp") == nil {
		t.Error("Lookup(floatcmp) = nil")
	}
	if Lookup("nope") != nil {
		t.Error("Lookup(nope) != nil")
	}
}

// TestOutputFormats checks the text rendering.
func TestOutputFormats(t *testing.T) {
	findings := []Finding{{File: "a.go", Line: 3, Column: 2, Check: "floatcmp", Message: "boom"}}
	var txt bytes.Buffer
	if err := WriteText(&txt, findings); err != nil {
		t.Fatal(err)
	}
	if got, want := txt.String(), "a.go:3: [floatcmp] boom\n"; got != want {
		t.Errorf("WriteText = %q, want %q", got, want)
	}
}

// TestChecksSubset runs a single analyzer and confirms findings from the
// others are absent.
func TestChecksSubset(t *testing.T) {
	l, pkgs := loadFixtures(t)
	findings := Run(l.Fset(), pkgs, []*Analyzer{Lookup("seededrand")})
	if len(findings) == 0 {
		t.Fatal("seededrand subset found nothing")
	}
	for _, f := range findings {
		if f.Check != "seededrand" && f.Check != "lintdirective" {
			t.Errorf("subset run leaked finding from %s: %v", f.Check, f)
		}
	}
}

// TestFindModuleRoot resolves the real repository root from this package
// directory.
func TestFindModuleRoot(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, module, err := FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	if module != "roadside" {
		t.Errorf("module = %q, want roadside", module)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Errorf("root %q has no go.mod: %v", root, err)
	}
	if _, _, err := FindModuleRoot(t.TempDir()); err == nil {
		t.Error("FindModuleRoot outside a module should fail")
	}
}

// TestSelfClean lints the repository itself: the tree must stay free of
// findings, which is also the gate verify.sh enforces.
func TestSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping whole-module type-check")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, module, err := FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root, module)
	pkgs, err := l.Load()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	findings := Run(l.Fset(), pkgs, nil)
	for _, f := range findings {
		t.Errorf("repository not lint-clean: %s", f)
	}

	// The checked-in ratchet baseline must parse, and — because the tree
	// is clean — must not carry grandfathered findings: the ratchet gate
	// and the self-clean gate are the same bar today.
	b, err := ReadBaseline(filepath.Join(root, "results", "LINT_baseline.json"))
	if err != nil {
		t.Fatalf("checked-in baseline: %v", err)
	}
	if len(b.Findings) != 0 {
		t.Errorf("checked-in baseline carries %d grandfathered findings; the tree should stay clean", len(b.Findings))
	}
	if unknown := b.Unknown(root, findings); len(unknown) != len(findings) {
		t.Errorf("ratchet dropped findings a clean baseline should surface: %d of %d", len(unknown), len(findings))
	}
}
