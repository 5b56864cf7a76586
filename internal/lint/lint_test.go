package lint

import (
	"fmt"
	"path/filepath"
	"testing"
)

// fixtureTests drives every rule over its golden fixture package under
// testdata/src/<dir>/ and asserts the exact diagnostic positions.
// Each rule ships at least one true positive, one clean case, and one
// suppressed case; the want lists are exhaustive, so a rule that goes
// quiet (or noisy) fails here. Fixtures are loaded under an assumed
// import path because several rules scope by package path.
var fixtureTests = []struct {
	rule string
	dir  string
	path string   // import path the fixture pretends to be
	want []string // "file:line:col rule", sorted by position
}{
	{
		rule: "seededrand",
		dir:  "seededrand",
		path: "fivealarms/lintfixture/seededrand",
		want: []string{
			"positive.go:4:2 seededrand",
			"positive.go:11:21 seededrand",
		},
	},
	{
		rule: "seededrand",
		dir:  "seededrand_blessed",
		path: "fivealarms/internal/rng",
		want: nil, // math/rand is legal inside the blessed package
	},
	{
		rule: "floateq",
		dir:  "floateq",
		path: "fivealarms/internal/geom",
		want: []string{
			"positive.go:6:11 floateq",
			"positive.go:9:12 floateq",
		},
	},
	{
		rule: "floateq",
		dir:  "floateq_outside",
		path: "fivealarms/internal/whp",
		want: nil, // exact float equality is only gated in the GIS kernel
	},
	{
		rule: "nakedpanic",
		dir:  "nakedpanic",
		path: "fivealarms/lintfixture/nakedpanic",
		want: []string{
			"positive.go:9:3 nakedpanic",
			"positive.go:15:2 nakedpanic",
		},
	},
	{
		rule: "ctxflow",
		dir:  "ctxflow",
		path: "fivealarms/internal/pipeline",
		want: []string{
			"positive.go:9:11 ctxflow",
			"positive.go:17:6 ctxflow",
			"positive.go:25:28 ctxflow",
		},
	},
	{
		rule: "ctxflow",
		dir:  "ctxflow_http",
		path: "fivealarms/lintfixture/ctxflowhttp",
		want: []string{
			"positive.go:12:13 ctxflow",
			"positive.go:19:14 ctxflow",
		},
	},
	{
		rule: "nocopylock",
		dir:  "nocopylock",
		path: "fivealarms/lintfixture/nocopylock",
		want: []string{
			"positive.go:21:9 nocopylock",
			"positive.go:22:11 nocopylock",
			"positive.go:23:9 nocopylock",
			"positive.go:31:7 nocopylock",
			"positive.go:45:8 nocopylock",
		},
	},
	{
		rule: "testonlyimport",
		dir:  "testonlyimport",
		path: "fivealarms/lintfixture/prod",
		want: []string{
			"positive.go:4:8 testonlyimport",
		},
	},
	{
		rule: "testonlyimport",
		dir:  "testonlyimport_self",
		path: "fivealarms/internal/refimpl/diffcheck",
		want: nil, // the test-only family may import itself
	},
	{
		rule: "maporder",
		dir:  "maporder",
		path: "fivealarms/internal/report",
		want: []string{
			"positive.go:15:2 maporder",
			"positive.go:23:2 maporder",
			"positive.go:32:2 maporder",
			"positive.go:40:2 maporder",
			"positive.go:47:2 maporder",
		},
	},
	{
		rule: "maporder",
		dir:  "maporder_outside",
		path: "fivealarms/lintfixture/maporder",
		want: nil, // map-order only gates the deterministic packages
	},
	{
		rule: "goroleak",
		dir:  "goroleak",
		path: "fivealarms/lintfixture/goroleak",
		want: []string{
			"positive.go:9:2 goroleak",
			"positive.go:10:2 goroleak",
			"positive.go:30:3 goroleak",
		},
	},
	{
		rule: "errflow",
		dir:  "errflow",
		path: "fivealarms/lintfixture/errflow",
		want: []string{
			"positive.go:11:2 errflow",
			"positive.go:12:2 errflow",
			"positive.go:13:2 errflow",
		},
	},
	{
		rule: "apilock",
		dir:  "apilock_clean",
		path: "fivealarms/internal/serve/api",
		want: nil, // shape matches the committed lockfile exactly
	},
	{
		rule: "apilock",
		dir:  "apilock_breaking",
		path: "fivealarms/internal/serve/api",
		want: []string{
			"dto.go:5:6 apilock", // removed field anchors at the type
			"dto.go:6:2 apilock", // retyped field anchors at the field
		},
	},
	{
		rule: "apilock",
		dir:  "apilock_additive",
		path: "fivealarms/internal/serve/api",
		want: []string{
			"dto.go:7:2 apilock",
		},
	},
	{
		rule: "apilock",
		dir:  "apilock_suppressed",
		path: "fivealarms/internal/serve/api",
		want: nil, // additive drift under an annotated waiver
	},
	{
		rule: "apilock",
		dir:  "apilock_missing",
		path: "fivealarms/internal/serve/api",
		want: []string{
			"dto.go:1:1 apilock",
		},
	},
}

// ruleByName fails the test when the registry loses a rule — the
// fixture suite is the existence proof for each rule.
func ruleByName(t *testing.T, name string) Rule {
	t.Helper()
	for _, r := range Rules() {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("rule %q is not registered", name)
	return Rule{}
}

func TestRuleFixtures(t *testing.T) {
	loader := NewLoader()
	for _, tt := range fixtureTests {
		t.Run(tt.dir, func(t *testing.T) {
			pkg, err := loader.Load(filepath.Join("testdata", "src", tt.dir), tt.path)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			diags := Check(pkg, []Rule{ruleByName(t, tt.rule)})
			var got []string
			for _, d := range diags {
				got = append(got, fmt.Sprintf("%s:%d:%d %s",
					filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Rule))
			}
			if len(got) != len(tt.want) {
				t.Fatalf("diagnostics:\ngot  %q\nwant %q", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Errorf("diagnostic %d:\ngot  %q\nwant %q", i, got[i], tt.want[i])
				}
			}
		})
	}
}

// TestFixturesRunFullSuite re-checks every fixture with the entire rule
// suite enabled, proving rules stay quiet outside their scope: the only
// extra finding the full suite may add to a fixture is none at all.
func TestFixturesRunFullSuite(t *testing.T) {
	loader := NewLoader()
	for _, tt := range fixtureTests {
		t.Run(tt.dir, func(t *testing.T) {
			pkg, err := loader.Load(filepath.Join("testdata", "src", tt.dir), tt.path)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			diags := Check(pkg, Rules())
			for _, d := range diags {
				if d.Rule != tt.rule {
					t.Errorf("foreign rule fired on fixture %s: %v", tt.dir, d)
				}
			}
		})
	}
}

func TestRuleNamesUniqueAndDocumented(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Rules() {
		if r.Name == "" || r.Doc == "" || r.Run == nil {
			t.Errorf("rule %+v is missing a name, doc, or runner", r.Name)
		}
		if seen[r.Name] {
			t.Errorf("duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
	}
	if !seen["seededrand"] || !seen["floateq"] || !seen["nakedpanic"] ||
		!seen["ctxflow"] || !seen["nocopylock"] || !seen["testonlyimport"] ||
		!seen["maporder"] || !seen["apilock"] || !seen["goroleak"] || !seen["errflow"] {
		t.Errorf("registry lost a contract rule: %v", seen)
	}
}
