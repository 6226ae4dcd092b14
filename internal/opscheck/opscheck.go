// Package opscheck keeps OPERATIONS.md honest: its tests fail when the
// metric catalog drifts from the instruments the code actually registers —
// a metric added without documentation, or documentation for a metric that
// no longer exists — and when the endpoint list drifts from the routes the
// daemon actually serves, in either direction: an endpoint added without
// documentation, or a runbook step that still names a route the server no
// longer has. scripts/checkdocs.sh runs these tests in CI; they live in a
// package (not a shell script) because recorder names are assembled from
// prefixes at registration time (sweep.NewNamedRecorder) and routes are
// registered through the server's mux catalog, neither of which a grep over
// source text can resolve. A third test keeps the library references in
// README.md, OPERATIONS.md and DESIGN.md honest: every bfdn.Name they cite
// must still be exported by the root package.
package opscheck

import (
	"os"
	"regexp"
	"sort"

	"bfdn/internal/server"
)

// RegisteredMetricNames returns every metric name the system registers: the
// bfdnd daemon's full registry (admission, request, sim and both sweep
// recorder families).
func RegisteredMetricNames() []string {
	names := server.MetricNames()
	sort.Strings(names)
	return names
}

// metricToken matches a metric-shaped word: a bfdnd_ name that does not
// trail off in an underscore (section headers write bare prefixes like
// "bfdnd_async_sweep_", which name a family, not a metric). dsweep_ names
// match too: the coordinator registers none, so a document that still
// cites one has drifted.
var metricToken = regexp.MustCompile(`\b(?:bfdnd|dsweep)_[a-z0-9_]*[a-z0-9]`)

// DocMetricNames extracts the set of metric-shaped tokens from the file at
// path, sorted and deduplicated.
func DocMetricNames(path string) ([]string, error) {
	return docTokens(path, metricToken)
}

// RegisteredEndpoints returns every "METHOD /path" route a fresh daemon
// serves, sorted. The pprof sub-routes (cmdline/profile/symbol/trace) are
// deliberately absent: the catalog lists GET /debug/pprof/ for the family.
func RegisteredEndpoints() []string {
	eps := server.Endpoints()
	sort.Strings(eps)
	return eps
}

// endpointToken matches an endpoint-shaped phrase: an HTTP method followed by
// an absolute path, the form both the route table and the runbook use. A
// query string ("GET /debug/traces?trace=<id>") is not part of the route and
// is left unmatched.
var endpointToken = regexp.MustCompile(`\b(?:GET|POST|PUT|DELETE|PATCH) /[A-Za-z0-9/_.-]*`)

// DocEndpoints extracts the set of endpoint-shaped tokens from the file at
// path, sorted and deduplicated.
func DocEndpoints(path string) ([]string, error) {
	return docTokens(path, endpointToken)
}

func docTokens(path string, re *regexp.Regexp) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var names []string
	for _, tok := range re.FindAllString(string(data), -1) {
		if !seen[tok] {
			seen[tok] = true
			names = append(names, tok)
		}
	}
	sort.Strings(names)
	return names, nil
}
