package check

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/db"
	"repro/internal/faultfs"
)

// CheckDiskFaults is the storage fault-injection property: it replays the
// instance's edit script against the disk store while injecting a fault at
// every counted file operation — whole-op failures, short writes, torn
// (crash) writes, sticky fsync failures — and asserts the durability
// contract after each one:
//
//   - every fact state acknowledged by a successful Sync and untouched
//     afterwards survives the crash and reopen
//   - recovery never invents facts: everything recovered was inserted at
//     some point of the script
//   - the recovered store resumes: applying the diff to the mirror state
//     makes it exactly equal, and a clean close/reopen is exact
//
// A second phase flips single bits in the store's files directly and
// asserts detection: the reopen either fails with a typed *db.CorruptError
// (and keeps failing — the quarantine is sticky) or recovers to exactly
// the reference facts; it never silently serves a wrong subset.
//
// A third phase crashes a compaction at every counted file operation and
// asserts the store reopens parity-equal to its uncompacted reference, and
// that a clean compaction strictly shrinks the log it rewrites.
func CheckDiskFaults(ins *Instance) error { return checkDiskFaults(ins, 0) }

// CheckDiskFaultsSampled bounds the per-phase injection points to at most
// n (spread across the op range) so wide sweeps stay affordable; the
// seeded torture tests run the unsampled property.
func CheckDiskFaultsSampled(n int) Property {
	return func(ins *Instance) error { return checkDiskFaults(ins, n) }
}

// faultScript builds the deterministic edit script the fault phases replay:
// the dirty instance's facts, the instance's edit script, then seeded
// deletions of roughly half the surviving facts so compaction always has
// garbage to reclaim.
func faultScript(ins *Instance) []db.Edit {
	var script []db.Edit
	for _, f := range ins.D.Facts() {
		script = append(script, db.Insertion(f))
	}
	script = append(script, ins.Edits...)
	mirror := db.New(ins.Schema)
	for _, e := range script {
		mirror.Apply(e)
	}
	rng := rand.New(rand.NewSource(ins.Seed ^ 0xfa0175))
	for _, f := range mirror.Facts() {
		if rng.Intn(2) == 0 {
			script = append(script, db.Deletion(f))
		}
	}
	return script
}

// syncEvery derives the Sync cadence (1-4 edits) from the seed.
func syncEvery(seed int64) int { return 1 + int((seed>>3)%4) }

// samplePoints returns at most max injection points in [1, total], spread
// evenly with a seeded offset; max <= 0 means every point.
func samplePoints(seed, total int64, max int) []int64 {
	if total <= 0 {
		return nil
	}
	if max <= 0 || int64(max) >= total {
		pts := make([]int64, 0, total)
		for p := int64(1); p <= total; p++ {
			pts = append(pts, p)
		}
		return pts
	}
	rng := rand.New(rand.NewSource(seed ^ 0x9047))
	stride := total / int64(max)
	pts := make([]int64, 0, max)
	for i := 0; i < max; i++ {
		lo := int64(i) * stride
		pts = append(pts, 1+lo+rng.Int63n(stride))
	}
	return pts
}

func checkDiskFaults(ins *Instance, maxPoints int) error {
	script := faultScript(ins)
	if err := checkFaultSweep(ins, script, maxPoints); err != nil {
		return err
	}
	if err := checkBitFlips(ins, script, maxPoints); err != nil {
		return err
	}
	return checkCompactionCrashes(ins, script, maxPoints)
}

// scriptRun applies the script to ds with a Sync cadence, mirroring into a
// fresh in-memory database. It stops at the first store error (a fired
// fault) and returns the mirror, the state acknowledged by the last
// successful Sync, and the set of fact keys touched after that ack.
func scriptRun(ins *Instance, ds *db.DiskStore, script []db.Edit) (mirror, acked *db.Database, touched map[string]bool) {
	mirror = db.New(ins.Schema)
	acked = db.New(ins.Schema)
	touched = make(map[string]bool)
	every := syncEvery(ins.Seed)
	for i, e := range script {
		if _, err := ds.Apply(e); err != nil {
			return mirror, acked, touched
		}
		mirror.Apply(e)
		touched[e.Fact.Key()] = true
		if (i+1)%every == 0 {
			if err := ds.Sync(); err != nil {
				return mirror, acked, touched
			}
			acked = db.DeepCopy(mirror)
			touched = make(map[string]bool)
		}
	}
	if err := ds.Sync(); err != nil {
		return mirror, acked, touched
	}
	acked = db.DeepCopy(mirror)
	touched = make(map[string]bool)
	return mirror, acked, touched
}

// checkFaultSweep is phase A: one run per injection point, cycling the
// fault kinds, asserting acked durability, no invented facts, and resume.
func checkFaultSweep(ins *Instance, script []db.Edit, maxPoints int) error {
	// Dry run: count the ops a clean open + script performs.
	dryDir, err := os.MkdirTemp("", "check-faults-*")
	if err != nil {
		return fmt.Errorf("disk faults: temp dir: %w", err)
	}
	defer os.RemoveAll(dryDir)
	counter := faultfs.NewInjector(faultfs.OS())
	ds, err := db.OpenDisk(dryDir, ins.Schema, 0, db.WithFS(counter))
	if err != nil {
		return fmt.Errorf("disk faults: dry open: %w", err)
	}
	scriptRun(ins, ds, script)
	ds.Crash()
	total := counter.OpCount()

	kinds := []faultfs.Kind{faultfs.KindCrash, faultfs.KindFail, faultfs.KindShortWrite, faultfs.KindStickySync}
	for i, p := range samplePoints(ins.Seed, total, maxPoints) {
		kind := kinds[i%len(kinds)]
		if err := runFaultPoint(ins, script, faultfs.Fault{At: p, Kind: kind}); err != nil {
			return fmt.Errorf("disk faults: %v at op %d/%d: %w", kind, p, total, err)
		}
	}
	return nil
}

func runFaultPoint(ins *Instance, script []db.Edit, fault faultfs.Fault) error {
	dir, err := os.MkdirTemp("", "check-faults-*")
	if err != nil {
		return fmt.Errorf("temp dir: %w", err)
	}
	defer os.RemoveAll(dir)
	inj := faultfs.NewInjector(faultfs.OS(), fault)
	mirror, acked := db.New(ins.Schema), db.New(ins.Schema)
	touched := map[string]bool{}
	ds, err := db.OpenDisk(dir, ins.Schema, 0, db.WithFS(inj))
	if err != nil {
		// The fault hit the open itself: nothing was acknowledged. The
		// injected open must not have poisoned the directory for a healthy
		// process — that is asserted by the clean reopen below.
		if errors.Is(err, db.ErrCorrupt) {
			return fmt.Errorf("injected open reported corruption: %v", err)
		}
	} else {
		mirror, acked, touched = scriptRun(ins, ds, script)
		ds.Crash()
	}

	re, err := db.OpenDisk(dir, ins.Schema, 0)
	if err != nil {
		return fmt.Errorf("clean reopen after fault: %w", err)
	}
	defer re.Close()
	// Acked durability: every fact state from the last successful Sync that
	// no later edit touched must be recovered exactly.
	for _, f := range acked.Facts() {
		if !touched[f.Key()] && !re.Has(f) {
			return fmt.Errorf("acked fact %v lost", f)
		}
	}
	for _, f := range re.Facts() {
		if !touched[f.Key()] && !acked.Has(f) && acked.Len() > 0 && !everInserted(script, f) {
			return fmt.Errorf("recovered fact %v neither acked nor touched", f)
		}
		// No invented facts, ever: everything recovered must have been
		// inserted by some script prefix.
		if !everInserted(script, f) {
			return fmt.Errorf("recovered fact %v was never inserted", f)
		}
	}
	// Resume: the recovered store accepts the diff back to the mirror state
	// and then matches it exactly, surviving a clean close/reopen.
	if _, err := re.ApplyAll(db.Diff(re, mirror)); err != nil {
		return fmt.Errorf("resuming after recovery: %w", err)
	}
	if !db.Equal(re, mirror) {
		return fmt.Errorf("resumed store differs from mirror (distance %d)", db.Distance(re, mirror))
	}
	if err := re.Sync(); err != nil {
		return fmt.Errorf("sync after resume: %w", err)
	}
	if err := re.Close(); err != nil {
		return fmt.Errorf("clean close after resume: %w", err)
	}
	re2, err := db.OpenDisk(dir, ins.Schema, 0)
	if err != nil {
		return fmt.Errorf("final reopen: %w", err)
	}
	defer re2.Close()
	if !db.Equal(re2, mirror) {
		return fmt.Errorf("final reopen differs from mirror (distance %d)", db.Distance(re2, mirror))
	}
	return nil
}

// checkBitFlips is phase B: flip single seeded bits in the store's files
// and assert corruption is always either detected (typed, sticky) or
// harmless (recovery equals the reference exactly) — never a silently
// wrong database.
func checkBitFlips(ins *Instance, script []db.Edit, maxPoints int) error {
	flips := 4
	if maxPoints > 0 && maxPoints < flips {
		flips = maxPoints
	}
	rng := rand.New(rand.NewSource(ins.Seed ^ 0xb17f11b))
	for i := 0; i < flips; i++ {
		if err := runBitFlip(ins, script, rng); err != nil {
			return fmt.Errorf("disk faults: bit flip %d: %w", i, err)
		}
	}
	return nil
}

func runBitFlip(ins *Instance, script []db.Edit, rng *rand.Rand) error {
	dir, err := os.MkdirTemp("", "check-flip-*")
	if err != nil {
		return fmt.Errorf("temp dir: %w", err)
	}
	defer os.RemoveAll(dir)
	ds, err := db.OpenDisk(dir, ins.Schema, 0)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	mirror, _, _ := scriptRun(ins, ds, script)
	if err := ds.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	// Pick a non-empty store file and flip one bit.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var candidates []string
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && fi.Size() > 0 {
			candidates = append(candidates, e.Name())
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	name := candidates[rng.Intn(len(candidates))]
	path := filepath.Join(dir, name)
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	bit := rng.Intn(len(raw) * 8)
	raw[bit/8] ^= 1 << (bit % 8)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}

	re, err := db.OpenDisk(dir, ins.Schema, 0)
	if err != nil {
		if errors.Is(err, db.ErrCorrupt) {
			// Detected: the quarantine must be sticky.
			if _, err2 := db.OpenDisk(dir, ins.Schema, 0); !errors.Is(err2, db.ErrCorrupt) {
				return fmt.Errorf("flip in %s at bit %d: quarantine not sticky (second open: %v)", name, bit, err2)
			}
			return nil
		}
		// A flipped version byte in pre-checksum metadata may read as a
		// future format — an explicit refusal, also acceptable.
		if strings.Contains(err.Error(), "newer than this binary") {
			return nil
		}
		return fmt.Errorf("flip in %s at bit %d: untyped open error: %w", name, bit, err)
	}
	defer re.Close()
	// Undetected: the flip must have been harmless (a torn tail in a commit
	// marker, say) — the facts must be exactly the reference's.
	if !db.Equal(re, mirror) {
		return fmt.Errorf("flip in %s at bit %d: silently wrong database (distance %d)",
			name, bit, db.Distance(re, mirror))
	}
	return nil
}

// checkCompactionCrashes is phase C: crash a compaction at every counted
// file operation; every outcome must reopen parity-equal to the
// uncompacted reference, and a clean compaction must strictly shrink the
// log it rewrites.
func checkCompactionCrashes(ins *Instance, script []db.Edit, maxPoints int) error {
	build := func() (string, *db.Database, error) {
		dir, err := os.MkdirTemp("", "check-compact-*")
		if err != nil {
			return "", nil, fmt.Errorf("temp dir: %w", err)
		}
		ds, err := db.OpenDisk(dir, ins.Schema, 0)
		if err != nil {
			os.RemoveAll(dir)
			return "", nil, fmt.Errorf("open: %w", err)
		}
		mirror, _, _ := scriptRun(ins, ds, script)
		if err := ds.Close(); err != nil {
			os.RemoveAll(dir)
			return "", nil, fmt.Errorf("close: %w", err)
		}
		return dir, mirror, nil
	}

	// Dry run: count the clean-open ops, then the compaction's own ops.
	dryDir, mirror, err := build()
	if err != nil {
		return fmt.Errorf("disk faults: compaction dry build: %w", err)
	}
	defer os.RemoveAll(dryDir)
	counter := faultfs.NewInjector(faultfs.OS())
	ds, err := db.OpenDisk(dryDir, ins.Schema, 0, db.WithFS(counter))
	if err != nil {
		return fmt.Errorf("disk faults: compaction dry open: %w", err)
	}
	openOps := counter.OpCount()
	dryRes, err := ds.Compact(0)
	if err != nil {
		return fmt.Errorf("disk faults: dry compaction: %w", err)
	}
	compactOps := counter.OpCount() - openOps
	ds.Close()

	for _, p := range samplePoints(ins.Seed, compactOps, maxPoints) {
		dir, _, err := build()
		if err != nil {
			return fmt.Errorf("disk faults: compaction build: %w", err)
		}
		err = func() error {
			defer os.RemoveAll(dir)
			inj := faultfs.NewInjector(faultfs.OS(),
				faultfs.Fault{At: openOps + p, Kind: faultfs.KindCrash})
			ds, err := db.OpenDisk(dir, ins.Schema, 0, db.WithFS(inj))
			if err != nil {
				return fmt.Errorf("open under injector: %w", err)
			}
			ds.Compact(0) // errors expected: the crash interrupts it
			ds.Crash()
			re, err := db.OpenDisk(dir, ins.Schema, 0)
			if err != nil {
				return fmt.Errorf("reopen after compaction crash: %w", err)
			}
			defer re.Close()
			if !db.Equal(re, mirror) {
				return fmt.Errorf("compaction crash lost facts (distance %d)", db.Distance(re, mirror))
			}
			return nil
		}()
		if err != nil {
			return fmt.Errorf("disk faults: crash at compaction op %d/%d: %w", p, compactOps, err)
		}
	}

	// Clean compaction: strictly fewer bytes in the rewritten log, and exact
	// parity across a reopen.
	dir, _, err := build()
	if err != nil {
		return fmt.Errorf("disk faults: clean compaction build: %w", err)
	}
	defer os.RemoveAll(dir)
	cds, err := db.OpenDisk(dir, ins.Schema, 0)
	if err != nil {
		return fmt.Errorf("disk faults: clean compaction open: %w", err)
	}
	res, err := cds.Compact(0)
	if err != nil {
		cds.Close()
		return fmt.Errorf("disk faults: clean compaction: %w", err)
	}
	if res != dryRes {
		cds.Close()
		return fmt.Errorf("disk faults: compaction nondeterministic: %+v vs %+v in dry run", res, dryRes)
	}
	if res.RecordsDropped > 0 && res.BytesAfter >= res.BytesBefore {
		cds.Close()
		return fmt.Errorf("disk faults: compaction did not shrink: %d -> %d bytes", res.BytesBefore, res.BytesAfter)
	}
	if !db.Equal(cds, mirror) {
		cds.Close()
		return fmt.Errorf("disk faults: compaction changed facts (distance %d)", db.Distance(cds, mirror))
	}
	if err := cds.Close(); err != nil {
		return fmt.Errorf("disk faults: close after compaction: %w", err)
	}
	re, err := db.OpenDisk(dir, ins.Schema, 0)
	if err != nil {
		return fmt.Errorf("disk faults: reopen after compaction: %w", err)
	}
	defer re.Close()
	if !db.Equal(re, mirror) {
		return fmt.Errorf("disk faults: post-compaction reopen differs (distance %d)", db.Distance(re, mirror))
	}
	return nil
}
