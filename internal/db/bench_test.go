package db

import (
	"fmt"
	"os"
	"testing"
)

// appendBytes appends raw bytes to a file, for torn-tail corruption tests.
func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// benchDB builds an in-memory database with n facts for benchmarks.
func benchDB(n int) *Database {
	d := New(testSchema())
	for i := 0; i < n; i++ {
		d.InsertFact(NewFact("Teams", fmt.Sprintf("t%d", i), fmt.Sprintf("c%d", i%7)))
		d.InsertFact(NewFact("Goals", fmt.Sprintf("p%d", i%97), fmt.Sprintf("d%d", i)))
	}
	return d
}

// BenchmarkCloneVsSnapshot guards the copy-on-write win: the historical
// per-job deep clone was O(|D|), as DeepCopy still is; Clone and Snapshot
// are O(relations).
func BenchmarkCloneVsSnapshot(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		d := benchDB(n)
		b.Run(fmt.Sprintf("deepCopy/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = DeepCopy(d)
			}
		})
		b.Run(fmt.Sprintf("clone/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = d.Clone()
			}
		})
		b.Run(fmt.Sprintf("snapshot/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = d.Snapshot()
			}
		})
	}
}

// BenchmarkDiskInsert measures the disk store's append path.
func BenchmarkDiskInsert(b *testing.B) {
	dir := b.TempDir()
	ds, err := OpenDisk(dir, testSchema(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds.InsertFact(NewFact("Teams", fmt.Sprintf("t%d", i), fmt.Sprintf("c%d", i%7)))
	}
}
