package fivealarms

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fivealarms/internal/cellnet"
	"fivealarms/internal/conus"
)

// loadSnapshotDataset warm-loads the transceiver layer from a columnar
// snapshot file (Config.SnapshotPath). Strict whole-file decode:
// header, checksum, per-row validation — a corrupt or truncated file
// fails the build rather than producing a short dataset.
func loadSnapshotDataset(path string, w *conus.World) (*cellnet.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening transceiver snapshot: %w", err)
	}
	defer f.Close()
	d, err := cellnet.ReadSnapshot(f, w)
	if err != nil {
		return nil, fmt.Errorf("loading transceiver snapshot %s: %w", path, err)
	}
	return d, nil
}

// WriteSnapshot saves the study's transceiver layer as a columnar
// snapshot file, suitable for Config.SnapshotPath warm loads. A study
// built from the written file with the same world configuration is
// bit-identical to this one (the snapshot stores projected positions
// exactly). The file is replaced atomically: on any error the previous
// file at path, if one exists, is left untouched.
func (s *Study) WriteSnapshot(path string) error {
	if err := writeFileAtomic(path, cellnet.StoreOf(s.Data.T).WriteSnapshot); err != nil {
		return fmt.Errorf("writing transceiver snapshot %s: %w", path, err)
	}
	return nil
}

// writeFileAtomic replaces path with what encode writes. encode writes
// into a temporary file in path's directory, which is then synced,
// closed and renamed over path, so a reader sees the old file or the
// whole new one, never a torn write. On any failure the temporary file
// is removed.
func writeFileAtomic(path string, encode func(io.Writer) error) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()           //fivealarms:allow(errflow) best-effort cleanup; err above is the one worth returning
			os.Remove(f.Name()) //fivealarms:allow(errflow) best-effort cleanup; err above is the one worth returning
		}
	}()
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = encode(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
