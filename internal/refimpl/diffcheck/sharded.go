package diffcheck

import (
	"math/rand"
	"reflect"

	"fivealarms"
)

// Shard-count conformance: the fleet overlay behind Table 1 and the
// §3.4 validation promises bit-identical results at any band count and
// under either pipeline schedule. CheckSharded enforces that promise end
// to end, whole twin studies compared product by product.

// shardCountGrid deliberately includes 1 (the reference shape, rebuilt
// on the serial schedule), counts that leave empty coastal bands at
// tiny transceiver fleets, and 7 (bands that never divide the grid
// evenly).
var shardCountGrid = [...]int{1, 2, 4, 7}

// genShardConfig derives one small study configuration from the seed.
// Scales stay tiny — the value of the sweep is in band-count and
// schedule coverage, not fleet size.
func genShardConfig(seed int64) fivealarms.Config {
	rng := rand.New(rand.NewSource(seed ^ 0x5a4ded))
	return fivealarms.Config{
		Seed:                 uint64(seed*2 + 7),
		CellSizeM:            []float64{40000, 60000, 90000}[rng.Intn(3)],
		Transceivers:         2500 + rng.Intn(3)*1250,
		MappedFiresPerSeason: 3 + rng.Intn(3),
	}
}

// CheckSharded builds the one-band reference study from the seeded
// configuration — its fleet overlay runs on the study's own analyzer —
// then a twin per (band count, schedule) pair, and demands
// byte-identical transceiver-axis products: Tables 1-3 (including every
// recomputed ratio field, via reflect.DeepEqual — no ulp allowance) and
// the §3.4 validation, plus band row counts that cover the fleet.
func CheckSharded(seed int64) error {
	cfg := genShardConfig(seed)
	ref, err := fivealarms.NewStudyWithOptions(fivealarms.WithConfig(cfg))
	if err != nil {
		return divergef("sharded-study", seed, "one-band build: %v", err)
	}
	for _, n := range shardCountGrid {
		for _, serial := range []bool{false, true} {
			opts := []fivealarms.Option{fivealarms.WithConfig(cfg), fivealarms.WithShards(n)}
			if serial {
				opts = append(opts, fivealarms.WithWorkers(1))
			}
			sh, err := fivealarms.NewStudyWithOptions(opts...)
			if err != nil {
				return divergef("sharded-study", seed, "shards=%d serial=%t build: %v", n, serial, err)
			}
			if !reflect.DeepEqual(ref.Table1(), sh.Table1()) {
				return divergef("sharded-table1", seed, "shards=%d serial=%t: merged overlay differs from one band", n, serial)
			}
			if !reflect.DeepEqual(ref.Table2(), sh.Table2()) {
				return divergef("sharded-table2", seed, "shards=%d serial=%t: provider rows differ from one band", n, serial)
			}
			if !reflect.DeepEqual(ref.Table3(), sh.Table3()) {
				return divergef("sharded-table3", seed, "shards=%d serial=%t: radio rows differ from one band", n, serial)
			}
			if !reflect.DeepEqual(ref.Validate(), sh.Validate()) {
				return divergef("sharded-validate", seed, "shards=%d serial=%t: merged validation differs from one band", n, serial)
			}
			rows := sh.ShardStats()
			if len(rows) != n {
				return divergef("sharded-stats", seed, "shards=%d serial=%t: ShardStats reported %d bands", n, serial, len(rows))
			}
			total := 0
			for _, r := range rows {
				total += r
			}
			if total != len(ref.Data.T) {
				return divergef("sharded-stats", seed, "shards=%d serial=%t: band rows sum to %d, fleet is %d", n, serial, total, len(ref.Data.T))
			}
		}
	}
	return nil
}
