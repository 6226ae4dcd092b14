package opscheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const opsPath = "../../OPERATIONS.md"

// TestMetricCatalogMatchesCode is the drift check, both directions: every
// registered instrument is documented in OPERATIONS.md, and every
// metric-shaped token in OPERATIONS.md names a registered instrument (or a
// suffixed series — _count/_sum/_bucket — of one).
func TestMetricCatalogMatchesCode(t *testing.T) {
	registered := RegisteredMetricNames()
	documented, err := DocMetricNames(opsPath)
	if err != nil {
		t.Fatal(err)
	}
	docSet := map[string]bool{}
	for _, n := range documented {
		docSet[n] = true
	}
	regSet := map[string]bool{}
	for _, n := range registered {
		regSet[n] = true
	}

	for _, n := range registered {
		if !docSet[n] {
			t.Errorf("metric %s is registered but missing from OPERATIONS.md", n)
		}
	}
	for _, n := range documented {
		if regSet[n] || isSeriesOf(n, regSet) || isFamilyPrefix(n, registered) {
			continue
		}
		t.Errorf("OPERATIONS.md documents %s, which no code registers", n)
	}
}

// isFamilyPrefix reports whether token names a metric family rather than one
// metric: the docs write "the bfdnd_async_sweep_* family" and similar, which
// scans as a proper prefix of registered names.
func isFamilyPrefix(token string, registered []string) bool {
	for _, n := range registered {
		if strings.HasPrefix(n, token+"_") {
			return true
		}
	}
	return false
}

// isSeriesOf reports whether token is a derived series of a registered
// histogram (name_count, name_sum, name_bucket) rather than a base name.
func isSeriesOf(token string, regSet map[string]bool) bool {
	for _, suffix := range []string{"_count", "_sum", "_bucket"} {
		if base, ok := strings.CutSuffix(token, suffix); ok && regSet[base] {
			return true
		}
	}
	return false
}

// TestEndpointCatalogMatchesCode is the endpoint drift check, both
// directions: every route the daemon registers appears in OPERATIONS.md, and
// every endpoint-shaped token in OPERATIONS.md names a route the daemon
// still serves — a runbook step that curls an endpoint which no longer
// exists is exactly the kind of rot this catches.
func TestEndpointCatalogMatchesCode(t *testing.T) {
	registered := RegisteredEndpoints()
	documented, err := DocEndpoints(opsPath)
	if err != nil {
		t.Fatal(err)
	}
	docSet := map[string]bool{}
	for _, e := range documented {
		docSet[e] = true
	}
	regSet := map[string]bool{}
	for _, e := range registered {
		regSet[e] = true
	}

	for _, e := range registered {
		if !docSet[e] {
			t.Errorf("endpoint %s is served but missing from OPERATIONS.md", e)
		}
	}
	for _, e := range documented {
		if !regSet[e] {
			t.Errorf("OPERATIONS.md documents %s, which the server no longer serves", e)
		}
	}
}

// TestRegisteredEndpointsAreWellFormed guards the endpoint check the same
// way: a non-trivial route table whose every pattern matches the token shape
// the doc scan uses.
func TestRegisteredEndpointsAreWellFormed(t *testing.T) {
	eps := RegisteredEndpoints()
	if len(eps) < 10 {
		t.Fatalf("only %d registered endpoints — route catalog construction is broken", len(eps))
	}
	for _, e := range eps {
		if endpointToken.FindString(e) != e {
			t.Errorf("registered endpoint %q does not match the catalog token shape", e)
		}
	}
}

// TestRegisteredNamesAreWellFormed guards the check itself: the registry
// must be non-trivial (an empty name list would make the catalog test pass
// vacuously) and every name must match the token shape the doc scan uses —
// otherwise a registered metric could never be found in the docs.
func TestRegisteredNamesAreWellFormed(t *testing.T) {
	names := RegisteredMetricNames()
	if len(names) < 15 {
		t.Fatalf("only %d registered metrics — registry construction is broken", len(names))
	}
	for _, n := range names {
		if metricToken.FindString(n) != n {
			t.Errorf("registered metric %q does not match the catalog token shape", n)
		}
	}
}

// facadeToken matches a reference to the root package's API in prose:
// bfdn.Name, or bfdn.Prefix* for every name with that prefix.
var facadeToken = regexp.MustCompile(`\bbfdn\.[A-Z][A-Za-z0-9_]*\*?`)

// facadeNames returns the exported top-level identifiers of package bfdn,
// parsed from the root package's non-test sources.
func facadeNames(t *testing.T) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob("../../*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	names := map[string]bool{}
	add := func(id *ast.Ident) {
		if id.IsExported() {
			names[id.Name] = true
		}
	}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id)
						}
					}
				}
			}
		}
	}
	return names
}

// TestDocFacadeNamesMatchCode is the library-API drift check: every bfdn.Name
// token in README.md, OPERATIONS.md and DESIGN.md names an exported
// top-level identifier of package bfdn, and every bfdn.Prefix* token
// matches at least one. A doc that still cites a deleted entry point fails.
func TestDocFacadeNamesMatchCode(t *testing.T) {
	names := facadeNames(t)
	if !names["Explore"] || !names["SweepDistributed"] {
		t.Fatalf("parsed %d exported names without Explore and SweepDistributed — the facade scan is broken", len(names))
	}
	for _, path := range []string{"../../README.md", opsPath, "../../DESIGN.md"} {
		doc := filepath.Base(path)
		tokens, err := docTokens(path, facadeToken)
		if err != nil {
			t.Fatal(err)
		}
		for _, tok := range tokens {
			name := strings.TrimPrefix(tok, "bfdn.")
			if prefix, ok := strings.CutSuffix(name, "*"); ok {
				if !hasPrefixName(names, prefix) {
					t.Errorf("%s cites %s, which matches no exported name of package bfdn", doc, tok)
				}
			} else if !names[name] {
				t.Errorf("%s cites %s, which package bfdn does not export", doc, tok)
			}
		}
	}
}

func hasPrefixName(names map[string]bool, prefix string) bool {
	for n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}
