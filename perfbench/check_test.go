package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

func TestFingerprintMismatchCountsAsFailure(t *testing.T) {
	golden := goldenFile{"study-default": {"1": {"table1": "aa", "table2": "bb"}}}
	newBench := func(seed uint64) (*bench, *report) {
		r := &report{}
		return &bench{o: options{workload: "study-default", seed: seed}, r: r, golden: golden}, r
	}

	b, r := newBench(1)
	b.checkStudy("matching", &studyRun{Prints: fingerprints{"table1": "aa", "table2": "bb"}}, nil, "study-default")
	if r.Attempted != 1 || r.Failed != 0 {
		t.Fatalf("matching golden: attempted=%d failed=%d, want 1 0", r.Attempted, r.Failed)
	}
	b.checkStudy("golden mismatch", &studyRun{Prints: fingerprints{"table1": "aa", "table2": "cc"}}, nil, "study-default")
	b.checkStudy("missing product", &studyRun{Prints: fingerprints{"table1": "aa"}}, nil, "study-default")
	if r.Attempted != 3 || r.Failed != 2 {
		t.Fatalf("after two mismatches: attempted=%d failed=%d, want 3 2", r.Attempted, r.Failed)
	}

	// Away from the default seed only the run's own first study is the
	// reference.
	b, r = newBench(9)
	ref := fingerprints{"table1": "11"}
	b.checkStudy("same as first", &studyRun{Prints: fingerprints{"table1": "11"}}, ref, "study-default")
	b.checkStudy("drifted", &studyRun{Prints: fingerprints{"table1": "12"}}, ref, "study-default")
	if r.Attempted != 2 || r.Failed != 1 {
		t.Fatalf("iteration drift: attempted=%d failed=%d, want 2 1", r.Attempted, r.Failed)
	}

	r.add("setup_s", "s", 1.5)
	line, err := r.contractLine([]string{"setup_s"})
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Attempted != 2 || out.Failed != 1 {
		t.Fatalf("result line %s: want correct=false attempted=2 failed=1", line)
	}
}

func TestContractLineRejectsMissingMetric(t *testing.T) {
	r := &report{}
	r.check(true, "")
	if _, err := r.contractLine([]string{"study_s"}); err == nil {
		t.Fatal("a metric that was not measured must be an error, not a silent omission")
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the names the program prints
// and the names BENCHMARK.json declares in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", got, perLayer)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "study", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 50 * ms},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms}, // runs past its parent
		{ID: 5, Parent: 2, Name: "a1", Start: 15 * ms, End: 20 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50 * ms, 2: 25 * ms, 3: 20 * ms, 4: 30 * ms, 5: 5 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
}

func TestRequestMixIsSeededAndWeighted(t *testing.T) {
	var counts [nRoutes]int
	for i := 0; i < 8000; i++ {
		q := requestAt(7, i)
		if q != requestAt(7, i) {
			t.Fatalf("request %d differs between draws", i)
		}
		counts[q.route]++
	}
	for k, n := range counts {
		share := float64(n) / 8000
		if want := routeWeight[k] / 8; share < want-0.02 || share > want+0.02 {
			t.Errorf("%s share %.3f, want %.3f", routeNames[k], share, want)
		}
	}
}
