package mulayer_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// routeTiers pairs each HTTP tier's route table with the command whose
// doc comment lists those routes under "Endpoints:".
var routeTiers = []struct{ routes, cmd string }{
	{"internal/server/server.go", "cmd/mulayer-serve/main.go"},
	{"internal/frontend/frontend.go", "cmd/mulayer-frontend/main.go"},
}

var (
	// handleRE matches a route registration, mux.HandleFunc("GET /path".
	handleRE = regexp.MustCompile(`mux\.HandleFunc\("([A-Z]+ /[^"]*)"`)
	// listedRE matches one route line of an "Endpoints:" doc block.
	listedRE = regexp.MustCompile(`^//\t([A-Z]+) +(/\S*)`)
	// docRouteRE matches a route written in prose, GET /path or POST /path.
	docRouteRE = regexp.MustCompile(`\b(GET|POST) +(/[A-Za-z0-9_./{}-]*[A-Za-z0-9_/{}-])`)
)

// TestEveryRouteListed is the route witness: the routes each tier
// registers are exactly the routes its command's "Endpoints:" doc block
// lists, and every GET or POST route README.md and docs/*.md name is a
// route of one of the two tiers.
func TestEveryRouteListed(t *testing.T) {
	served := map[string]bool{}
	for _, tier := range routeTiers {
		registered := registeredRoutes(t, tier.routes)
		if len(registered) == 0 {
			t.Fatalf("%s registers no routes", tier.routes)
		}
		listed := listedRoutes(t, tier.cmd)
		for _, r := range sortedKeys(registered) {
			served[r] = true
			if !listed[r] {
				t.Errorf("%s registers %q, which the Endpoints list of %s lacks", tier.routes, r, tier.cmd)
			}
		}
		for _, r := range sortedKeys(listed) {
			if !registered[r] {
				t.Errorf("%s lists %q, which %s does not register", tier.cmd, r, tier.routes)
			}
		}
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append([]string{"README.md"}, docs...) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docRouteRE.FindAllStringSubmatch(string(data), -1) {
			if r := m[1] + " " + m[2]; !served[r] {
				t.Errorf("%s names %q, which neither tier registers", path, r)
			}
		}
	}
}

// registeredRoutes returns the "METHOD /path" patterns a Go file passes
// to mux.HandleFunc.
func registeredRoutes(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, m := range handleRE.FindAllStringSubmatch(string(data), -1) {
		out[m[1]] = true
	}
	return out
}

// listedRoutes returns the "METHOD /path" lines of a command's
// "Endpoints:" doc block, which runs to the first blank comment line
// after its entries.
func listedRoutes(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case line == "// Endpoints:":
			in = true
		case in && line == "//" && len(out) > 0:
			return out
		case in:
			if m := listedRE.FindStringSubmatch(line); m != nil {
				out[m[1]+" "+m[2]] = true
			}
		}
	}
	if !in {
		t.Fatalf("%s has no Endpoints: block", path)
	}
	return out
}
