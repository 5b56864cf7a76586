package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// goldenJSON holds the product fingerprints recorded at the default
// seed, per workload scale. Regenerate with -write-golden after a
// deliberate output change.
//
//go:embed golden.json
var goldenJSON []byte

// defaultSeed is the seed whose fingerprints golden.json records. Seed
// 0 selects the same study (Config defaults it to 1).
const defaultSeed = 1

type goldenFile map[string]map[string]fingerprints // workload -> seed -> prints

func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// goldenFor returns the recorded fingerprints for workload at seed, if
// any were recorded.
func (g goldenFile) goldenFor(workload string, seed uint64) (fingerprints, bool) {
	if seed == 0 {
		seed = defaultSeed
	}
	p, ok := g[workload][strconv.FormatUint(seed, 10)]
	return p, ok
}

// writeGolden records prints for workload at the default seed into the
// golden file at path, keeping the other workloads' entries.
func writeGolden(path, workload string, prints fingerprints) error {
	g := goldenFile{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &g); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	g[workload] = map[string]fingerprints{strconv.Itoa(defaultSeed): prints}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding golden: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing golden: %w", err)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
