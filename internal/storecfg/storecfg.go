// Package storecfg wires the pluggable db.Store backends into command-line
// binaries: every cmd/ binary exposes the same -store/-store-dir flags
// (defaulting from the QOCO_STORE environment variable, which the CI disk
// matrix leg also sets) and resolves them here.
package storecfg

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/db"
)

// Config is the resolved storage configuration of one binary.
type Config struct {
	// Backend is "mem" (the in-memory store) or "disk" (the disk-backed
	// store, one append-only log).
	Backend string
	// Dir is the disk store's directory; empty means a fresh temp dir.
	Dir string
}

// Register installs the storage flags on fs (flag.CommandLine for binaries).
// The -store default honors QOCO_STORE so the CI disk leg exercises every
// binary without editing invocations.
func Register(fs *flag.FlagSet) *Config {
	c := &Config{}
	def := os.Getenv("QOCO_STORE")
	if def == "" {
		def = "mem"
	}
	fs.StringVar(&c.Backend, "store", def,
		"fact-store backend: mem (in-memory) or disk (disk-backed log; defaults from $QOCO_STORE)")
	fs.StringVar(&c.Dir, "store-dir", "",
		"directory of the disk-backed store (empty = fresh temp dir); reopening a dir resumes its contents")
	return c
}

// Materialize resolves the configuration against a seed database: with the
// mem backend the seed itself is the store; with the disk backend the store
// directory is opened (created under os.TempDir if unset) and, when the
// store is empty, seeded with the seed's facts and synced. Reopening a
// non-empty store directory keeps its contents — the seed is ignored, which
// is what lets a cleaned database survive process restarts.
func (c *Config) Materialize(seed *db.Database) (db.Store, error) {
	switch c.Backend {
	case "", "mem":
		return seed, nil
	case "disk":
		dir := c.Dir
		if dir == "" {
			var err error
			if dir, err = os.MkdirTemp("", "qoco-store-*"); err != nil {
				return nil, fmt.Errorf("storecfg: creating store dir: %w", err)
			}
		}
		ds, err := db.OpenDisk(dir, seed.Schema(), 0)
		if err != nil {
			if errors.Is(err, db.ErrCorrupt) {
				return nil, fmt.Errorf("%w\n(the damaged file was quarantined; see docs/OPERATIONS.md, \"Storage corruption and quarantine\")", err)
			}
			return nil, err
		}
		if ds.Len() == 0 && seed.Len() > 0 {
			if _, err := db.Copy(ds, seed); err != nil {
				ds.Close()
				return nil, err
			}
			if err := ds.Sync(); err != nil {
				ds.Close()
				return nil, err
			}
		}
		return ds, nil
	default:
		return nil, fmt.Errorf("storecfg: unknown backend %q (want mem or disk)", c.Backend)
	}
}
