package check

import (
	"context"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/db"
	"repro/internal/eval"
)

// The disk-backend differential properties replay the same generated
// instances through the disk-backed store and compare every
// observable against the in-memory reference. The generator's awkward value
// pool (empty strings, separators, quotes) doubles as a fuzz of the symbol
// table and log encoding.

// withDiskStore opens a disk store in a fresh temp dir, runs fn, and cleans
// up. fn receives the store and its directory (for reopen scenarios).
func withDiskStore(ins *Instance, fn func(ds *db.DiskStore, dir string) error) error {
	dir, err := os.MkdirTemp("", "check-disk-*")
	if err != nil {
		return fmt.Errorf("disk: temp dir: %w", err)
	}
	defer os.RemoveAll(dir)
	ds, err := db.OpenDisk(dir, ins.Schema, 0)
	if err != nil {
		return fmt.Errorf("disk: open: %w", err)
	}
	defer ds.Close()
	return fn(ds, dir)
}

// CheckStoreParity replays the instance through both store backends and
// compares every observable:
//
//   - seeding with D's facts and applying the edit script reports the same
//     changed/error outcome per edit on both backends
//   - the final fact sets are byte-identical (Facts order included)
//   - the optimized evaluator over the disk store agrees with the naive
//     reference over the in-memory store, for the query and the union
//   - a clean close and reopen of the disk store reproduces the same facts
func CheckStoreParity(ins *Instance) error {
	return withDiskStore(ins, func(ds *db.DiskStore, dir string) error {
		mem := db.New(ins.Schema)
		apply := func(e db.Edit) error {
			chD, errD := ds.Apply(e)
			chM, errM := mem.Apply(e)
			if chD != chM || (errD == nil) != (errM == nil) {
				return fmt.Errorf("store parity: Apply(%v) = (%v, %v) on disk, (%v, %v) on mem",
					e, chD, errD, chM, errM)
			}
			return nil
		}
		for _, f := range ins.D.Facts() {
			if err := apply(db.Insertion(f)); err != nil {
				return err
			}
		}
		for _, e := range ins.Edits {
			if err := apply(e); err != nil {
				return err
			}
		}
		if err := factsIdentical("after edits", ds, mem); err != nil {
			return err
		}
		// Evaluator parity on the disk backend against the naive reference.
		naive := eval.NaiveResult(ins.Query, mem)
		if got := eval.Result(ins.Query, ds, eval.NoCache()); !tuplesEqual(got, naive) {
			return fmt.Errorf("store parity: Result over disk = %s, naive over mem = %s",
				formatTuples(got), formatTuples(naive))
		}
		// Warm the cache, then read again: generation-stamped caching must
		// work identically for disk-store IDs.
		eval.Result(ins.Query, ds)
		if got := eval.Result(ins.Query, ds); !tuplesEqual(got, naive) {
			return fmt.Errorf("store parity: warm-cache Result over disk = %s, naive = %s",
				formatTuples(got), formatTuples(naive))
		}
		if ins.Union != nil {
			want := naiveUnion(ins.Union, mem)
			if got := eval.ResultUnion(ins.Union, ds, eval.NoCache()); !tuplesEqual(got, want) {
				return fmt.Errorf("store parity: ResultUnion over disk = %s, naive union = %s",
					formatTuples(got), formatTuples(want))
			}
		}
		// Clean close and reopen: byte-identical facts.
		if err := ds.Close(); err != nil {
			return fmt.Errorf("store parity: close: %w", err)
		}
		re, err := db.OpenDisk(dir, ins.Schema, 0)
		if err != nil {
			return fmt.Errorf("store parity: reopen: %w", err)
		}
		defer re.Close()
		return factsIdentical("after reopen", re, mem)
	})
}

// factsIdentical asserts two readers enumerate byte-identical fact lists.
func factsIdentical(label string, a, b db.Reader) error {
	af, bf := a.Facts(), b.Facts()
	if len(af) != len(bf) {
		return fmt.Errorf("store parity (%s): %d facts on disk, %d on mem", label, len(af), len(bf))
	}
	for i := range af {
		if af[i].Rel != bf[i].Rel || !af[i].Args.Equal(bf[i].Args) {
			return fmt.Errorf("store parity (%s): fact %d is %v on disk, %v on mem", label, i, af[i], bf[i])
		}
	}
	return nil
}

// CheckCleanerDisk runs the full cleaning loop over the disk-backed store
// and asserts the same convergence contract as CheckCleaner: the cleaned
// result matches the ground truth under the naive reference evaluator, and
// with a perfect oracle every edit moves D toward DG.
func CheckCleanerDisk(ins *Instance) error {
	return withDiskStore(ins, func(ds *db.DiskStore, dir string) error {
		if _, err := db.Copy(ds, ins.D); err != nil {
			return fmt.Errorf("cleaner (disk): seeding: %w", err)
		}
		dist := db.Distance(ds, ins.DG)
		cl := core.New(ds, crowd.NewPerfect(ins.DG), core.Config{
			RNG: rand.New(rand.NewSource(ins.Seed)),
		})
		rep, err := cl.Clean(context.Background(), ins.Query)
		if err != nil {
			return fmt.Errorf("cleaner (disk): %w", err)
		}
		got := eval.NaiveResult(ins.Query, ds)
		want := eval.NaiveResult(ins.Query, ins.DG)
		if !tuplesEqual(got, want) {
			return fmt.Errorf("cleaner (disk): Q(D') = %s but Q(DG) = %s",
				formatTuples(got), formatTuples(want))
		}
		changing := 0
		for _, e := range rep.Edits {
			switch e.Op {
			case db.Insert:
				if !ins.DG.Has(e.Fact) {
					return fmt.Errorf("cleaner (disk): inserted fact %v is not in the ground truth", e.Fact)
				}
			case db.Delete:
				if ins.DG.Has(e.Fact) {
					return fmt.Errorf("cleaner (disk): deleted fact %v is in the ground truth", e.Fact)
				}
			}
			changing++
		}
		if changing > dist {
			return fmt.Errorf("cleaner (disk): %d edits applied but initial distance was %d", changing, dist)
		}
		// The cleaned store survives a close/reopen with its edits intact.
		cleaned := db.DeepCopy(ds)
		if err := ds.Close(); err != nil {
			return fmt.Errorf("cleaner (disk): close: %w", err)
		}
		re, err := db.OpenDisk(dir, ins.Schema, 0)
		if err != nil {
			return fmt.Errorf("cleaner (disk): reopen: %w", err)
		}
		defer re.Close()
		if !db.Equal(re, cleaned) {
			return fmt.Errorf("cleaner (disk): reopened store lost cleaning edits (distance %d)",
				db.Distance(re, cleaned))
		}
		return nil
	})
}

// CheckDiskReopen is the kill-and-reopen property: it applies the edit
// script to a disk store with a Sync at a seed-chosen position, kills the
// process (Crash: buffers dropped, no flush), reopens, and asserts the
// durability contract:
//
//   - no fact loss past the last Sync: every fact state from the synced
//     prefix that no later edit touched is recovered exactly
//   - facts touched after the Sync recover to either their synced state or
//     a state some prefix of the post-sync edits produces (prefix
//     recovery) — never an invented value
//   - the reopened store is writable and a clean close then reopen is exact
func CheckDiskReopen(ins *Instance) error {
	return withDiskStore(ins, func(ds *db.DiskStore, dir string) error {
		// Build the full script: seed D's facts, then the edit script.
		script := make([]db.Edit, 0, ins.D.Len()+len(ins.Edits))
		for _, f := range ins.D.Facts() {
			script = append(script, db.Insertion(f))
		}
		script = append(script, ins.Edits...)
		rng := rand.New(rand.NewSource(ins.Seed ^ 0x5eed))
		syncAt := 0
		if len(script) > 0 {
			syncAt = rng.Intn(len(script) + 1)
		}
		mirror := db.New(ins.Schema)
		var synced *db.Database
		touched := make(map[string]bool) // fact keys edited after the sync
		for i, e := range script {
			if i == syncAt {
				if err := ds.Sync(); err != nil {
					return fmt.Errorf("disk reopen: sync: %w", err)
				}
				synced = db.DeepCopy(mirror)
			}
			if _, err := ds.Apply(e); err != nil {
				return fmt.Errorf("disk reopen: apply %v: %w", e, err)
			}
			if _, err := mirror.Apply(e); err != nil {
				return fmt.Errorf("disk reopen: mirror apply %v: %w", e, err)
			}
			if synced != nil {
				touched[e.Fact.Key()] = true
			}
		}
		if syncAt == len(script) {
			if err := ds.Sync(); err != nil {
				return fmt.Errorf("disk reopen: sync: %w", err)
			}
			synced = db.DeepCopy(mirror)
		}
		final := db.DeepCopy(mirror)
		ds.Crash()

		re, err := db.OpenDisk(dir, ins.Schema, 0)
		if err != nil {
			return fmt.Errorf("disk reopen: reopen after crash: %w", err)
		}
		// Untouched facts: recovered state must match the synced state both
		// ways (present stays present, absent stays absent).
		for _, f := range synced.Facts() {
			if !touched[f.Key()] && !re.Has(f) {
				re.Close()
				return fmt.Errorf("disk reopen: synced fact %v lost (never touched after sync)", f)
			}
		}
		for _, f := range re.Facts() {
			if touched[f.Key()] {
				// A touched fact may recover to any prefix state,
				// but the value itself must come from the script.
				if !synced.Has(f) && !final.Has(f) && !everInserted(script, f) {
					re.Close()
					return fmt.Errorf("disk reopen: recovered fact %v was never inserted", f)
				}
				continue
			}
			if !synced.Has(f) {
				re.Close()
				return fmt.Errorf("disk reopen: recovered fact %v absent at sync and never touched after", f)
			}
		}
		// The recovered store accepts further edits and survives a clean
		// close/reopen exactly.
		probe := db.NewFact(ins.Schema.Names()[0], make([]string, ins.Schema.Arity(ins.Schema.Names()[0]))...)
		if _, err := re.InsertFact(probe); err != nil {
			re.Close()
			return fmt.Errorf("disk reopen: insert after recovery: %w", err)
		}
		want := db.DeepCopy(re)
		if err := re.Close(); err != nil {
			return fmt.Errorf("disk reopen: clean close: %w", err)
		}
		re2, err := db.OpenDisk(dir, ins.Schema, 0)
		if err != nil {
			return fmt.Errorf("disk reopen: final reopen: %w", err)
		}
		defer re2.Close()
		if !db.Equal(re2, want) {
			return fmt.Errorf("disk reopen: clean close/reopen drifted (distance %d)", db.Distance(re2, want))
		}
		return nil
	})
}

// everInserted reports whether the script ever inserts the fact.
func everInserted(script []db.Edit, f db.Fact) bool {
	for _, e := range script {
		if e.Op == db.Insert && e.Fact.Rel == f.Rel && e.Fact.Args.Equal(f.Args) {
			return true
		}
	}
	return false
}
