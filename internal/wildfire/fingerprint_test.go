package wildfire

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// seasonFingerprint hashes everything a season's fires carry that the
// paper's products read: every fire's ID, name, days, acre bits,
// ignition bits, state, road-corridor flag and the bits of every
// perimeter vertex, in order.
func seasonFingerprint(h interface{ Write([]byte) (int, error) }, s *Season) {
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	u64(uint64(s.Year))
	u64(uint64(len(s.Mapped)))
	for i := range s.Mapped {
		f := &s.Mapped[i]
		u64(uint64(f.ID))
		h.Write([]byte(f.Name))
		u64(uint64(f.StartDay))
		u64(uint64(f.EndDay))
		f64(f.Acres)
		f64(f.Ignition.X)
		f64(f.Ignition.Y)
		u64(uint64(f.StateIdx))
		if f.RoadCorridor {
			u64(1)
		} else {
			u64(0)
		}
		u64(uint64(len(f.Perimeter)))
		for _, pg := range f.Perimeter {
			u64(uint64(len(pg.Holes)))
			u64(uint64(len(pg.Exterior)))
			for _, p := range pg.Exterior {
				f64(p.X)
				f64(p.Y)
			}
			for _, hole := range pg.Holes {
				u64(uint64(len(hole)))
				for _, p := range hole {
					f64(p.X)
					f64(p.Y)
				}
			}
		}
	}
}

// TestSimulatorFingerprint pins the simulator's output bit for bit: the
// 2000-2018 history plus the 2019 hold-out season on the package's
// 20 km test world, for two seeds. Any change to the spread model, the
// contour tracer or the rng draw order moves these constants; a pure
// speed change must leave them alone. The parallel history shares the
// simulator's pooled scratch across seasons in flight and must hash the
// same.
func TestSimulatorFingerprint(t *testing.T) {
	want := map[uint64]string{
		1: "2769328140c0ad46",
		7: "8b516ecf1be90a42",
	}
	for _, seed := range []uint64{1, 7} {
		for _, workers := range []int{1, 4} {
			h := fnv.New64a()
			for _, s := range SimulateHistoryParallel(testSim, seed, 6, workers) {
				seasonFingerprint(h, s)
			}
			seasonFingerprint(h, Simulate2019(testSim, seed, 6))
			if got := fmt.Sprintf("%016x", h.Sum64()); got != want[seed] {
				t.Errorf("seed %d, %d workers: simulator fingerprint %s, want %s", seed, workers, got, want[seed])
			}
		}
	}
}
