package fivealarms

// Band-count and snapshot warm-load tests: the fleet overlay must be
// observationally identical at any band count — same tables, same
// validation, same masks, same downstream analyses — on either
// schedule, with any mix of snapshot loading, and ShardStats must
// report the bands honestly. The cross-band-count conformance sweep
// lives in shard_conformance_test.go (external package, driving
// refimpl/diffcheck).

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// shardedTwin builds the stress config with n bands (plus any extra
// options) and fails the test on error.
func shardedTwin(t *testing.T, n int, extra ...Option) *Study {
	t.Helper()
	opts := append([]Option{WithConfig(stressCfg), WithShards(n)}, extra...)
	s, err := NewStudyWithOptions(opts...)
	if err != nil {
		t.Fatalf("sharded build (n=%d): %v", n, err)
	}
	return s
}

// TestShardedStudyMatchesMonolithic: every analysis fingerprint — the
// fleet products and the analyses downstream of them — is
// byte-identical between the one-band study (the fleet overlay on the
// study's own analyzer) and multi-band twins on either schedule.
func TestShardedStudyMatchesMonolithic(t *testing.T) {
	want := analysisFingerprints(mustStudy(stressCfg))
	for _, n := range []int{3, 5} {
		for _, serial := range []bool{false, true} {
			var extra []Option
			if serial {
				extra = append(extra, WithWorkers(1))
			}
			got := analysisFingerprints(shardedTwin(t, n, extra...))
			for name, w := range want {
				if got[name] != w {
					t.Errorf("n=%d serial=%v: %s differs from one band:\none band:\n%s\nbands:\n%s", n, serial, name, w, got[name])
				}
			}
		}
	}
}

// TestShardedSeasonAccessors: on a prepared multi-band study the
// memoized History and Season2019 accessors serve the seasons Prepare
// simulated — identical to a lazily simulated one-band study's.
func TestShardedSeasonAccessors(t *testing.T) {
	lazy := mustStudy(stressCfg)
	sh := shardedTwin(t, 2)
	if err := sh.Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := len(sh.History()), len(lazy.History()); got != want {
		t.Fatalf("prepared History has %d seasons, lazy %d", got, want)
	}
	for i, season := range sh.History() {
		if season.Year != lazy.History()[i].Year || len(season.Mapped) != len(lazy.History()[i].Mapped) {
			t.Errorf("season %d differs between prepared and lazy history", i)
		}
	}
	if sh.Season2019().Year != lazy.Season2019().Year || len(sh.Season2019().Mapped) != len(lazy.Season2019().Mapped) {
		t.Errorf("prepared 2019 season differs from the lazy one")
	}
}

// TestShardedMasksBitIdentical: the union masks do not depend on the
// band count or on Prepare — a prepared four-band study's masks match
// a lazy one-band study's word for word (fingerprint, not just count).
func TestShardedMasksBitIdentical(t *testing.T) {
	lazy := mustStudy(stressCfg)
	sh := shardedTwin(t, 4)
	if err := sh.Prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := sh.HistoryUnionMask().Fingerprint(), lazy.HistoryUnionMask().Fingerprint(); got != want {
		t.Errorf("history union fingerprint %#x != one band %#x", got, want)
	}
	if got, want := sh.Season2019UnionMask().Fingerprint(), lazy.Season2019UnionMask().Fingerprint(); got != want {
		t.Errorf("2019 union fingerprint %#x != one band %#x", got, want)
	}
}

// TestShardedManyEmptyShards: more bands than grid rows leaves many
// bands empty (zero rows, zero transceivers). Empty bands must build,
// merge as no-ops, and leave the results untouched.
func TestShardedManyEmptyShards(t *testing.T) {
	ref := mustStudy(stressCfg)
	sh := shardedTwin(t, 300)
	rows := sh.ShardStats()
	if len(rows) != 300 {
		t.Fatalf("ShardStats reported %d bands, want 300", len(rows))
	}
	total, empty := 0, 0
	for _, r := range rows {
		total += r
		if r == 0 {
			empty++
		}
	}
	if total != ref.Data.Len() {
		t.Errorf("band rows sum to %d, fleet is %d", total, ref.Data.Len())
	}
	if empty == 0 {
		t.Errorf("expected empty bands at 300 bands over a %d-row grid", sh.World.Grid.NY)
	}
	want := analysisFingerprints(ref)
	got := analysisFingerprints(sh)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s differs from one band with empty bands present", name)
		}
	}
}

// TestShardStats: Shards 0 and 1 are both one band, reported as [N];
// more bands report band-ordered row counts that sum to the fleet, and
// the returned slice is the caller's own.
func TestShardStats(t *testing.T) {
	for _, n := range []int{0, 1} {
		s := shardedTwin(t, n)
		if rows := s.ShardStats(); len(rows) != 1 || rows[0] != s.Data.Len() {
			t.Fatalf("Shards=%d: ShardStats = %v, want [%d]", n, rows, s.Data.Len())
		}
	}
	sh := shardedTwin(t, 4)
	rows := sh.ShardStats()
	total := 0
	for _, r := range rows {
		total += r
	}
	if len(rows) != 4 || total != sh.Data.Len() {
		t.Fatalf("four-band ShardStats = %v, fleet %d", rows, sh.Data.Len())
	}
	rows[0] = -1
	if again := sh.ShardStats(); again[0] == -1 {
		t.Fatal("ShardStats returned an aliased slice")
	}
}

// TestSnapshotWarmLoadBitIdentical: a study warm-loaded from a snapshot
// written by its own twin is indistinguishable from the cold build —
// including with several bands on top of the warm load.
func TestSnapshotWarmLoadBitIdentical(t *testing.T) {
	cold := mustStudy(stressCfg)
	path := filepath.Join(t.TempDir(), "fleet.fa5c")
	if err := cold.WriteSnapshot(path); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	want := analysisFingerprints(cold)
	for _, shards := range []int{0, 4} {
		opts := []Option{WithConfig(stressCfg), WithSnapshot(path)}
		if shards > 0 {
			opts = append(opts, WithShards(shards))
		}
		warm, err := NewStudyWithOptions(opts...)
		if err != nil {
			t.Fatalf("warm build (shards=%d): %v", shards, err)
		}
		if warm.Data.Len() != cold.Data.Len() {
			t.Fatalf("shards=%d: warm fleet %d rows, cold %d", shards, warm.Data.Len(), cold.Data.Len())
		}
		got := analysisFingerprints(warm)
		for name, w := range want {
			if got[name] != w {
				t.Errorf("shards=%d: %s differs between cold build and snapshot warm load", shards, name)
			}
		}
	}
}

// TestSnapshotLoadErrorsSurface: a missing or corrupt snapshot fails
// the build with an error naming the path — no partial Study escapes.
func TestSnapshotLoadErrorsSurface(t *testing.T) {
	s, err := NewStudyWithOptions(WithConfig(stressCfg), WithSnapshot(filepath.Join(t.TempDir(), "absent.fa5c")))
	if err == nil || s != nil {
		t.Fatalf("missing snapshot: study=%v err=%v", s, err)
	}

	bad := filepath.Join(t.TempDir(), "corrupt.fa5c")
	if err := os.WriteFile(bad, []byte("FA5Cnot really a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = NewStudyWithOptions(WithConfig(stressCfg), WithSnapshot(bad))
	if err == nil || s != nil {
		t.Fatalf("corrupt snapshot: study=%v err=%v", s, err)
	}
	if !strings.Contains(err.Error(), bad) {
		t.Errorf("corrupt-snapshot error %q does not name the path", err)
	}
}

// TestWriteSnapshotErrors: an unwritable destination is reported and no
// partial file is left behind.
func TestWriteSnapshotErrors(t *testing.T) {
	s := mustStudy(stressCfg)
	path := filepath.Join(t.TempDir(), "no-such-dir", "fleet.fa5c")
	if err := s.WriteSnapshot(path); err == nil {
		t.Fatal("WriteSnapshot into a missing directory succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("partial snapshot left behind: stat err = %v", err)
	}
}

// TestWriteSnapshotAtomic: an encoder that writes half its bytes and
// then fails leaves the previous snapshot byte-identical and no
// temporary file behind; a clean rewrite replaces it whole.
func TestWriteSnapshotAtomic(t *testing.T) {
	s := mustStudy(stressCfg)
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.fa5c")
	if err := s.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("encoder failed")
	err = writeFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write(before[:len(before)/2]); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("writeFileAtomic err = %v, want the encoder's", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatalf("failed write changed the previous snapshot: %d bytes, had %d", len(after), len(before))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only the snapshot", names)
	}
	if err := s.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(path); err != nil || string(again) != string(before) {
		t.Fatalf("rewrite differs from the first write (err %v)", err)
	}
}

// TestValidateRejectsBadShards: out-of-range shard counts are
// configuration errors, reported by field.
func TestValidateRejectsBadShards(t *testing.T) {
	for _, n := range []int{-1, maxShards + 1} {
		cfg := stressCfg
		cfg.Shards = n
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "Shards") {
			t.Errorf("Shards=%d: Validate() = %v, want a Shards error", n, err)
		}
		if _, err := NewStudyWithOptions(WithConfig(cfg)); err == nil {
			t.Errorf("Shards=%d: NewStudyWithOptions accepted it", n)
		}
	}
}
