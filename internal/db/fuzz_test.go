package db

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// validLog encodes a log defining the symbols Teams, A and B, inserting
// Teams(A, B), and ending with a commit marker.
func validLog() []byte {
	var b []byte
	for _, v := range []string{"Teams", "A", "B"} {
		b = appendLogRecord(b, opSymbol, v, nil)
	}
	b = appendLogRecord(b, opInsert, "", []uint32{0, 1, 2})
	return appendLogRecord(b, opCommit, "", nil)
}

// FuzzLogReplay feeds arbitrary bytes to the store log's recovery path: it
// must never panic, must classify every failure as typed corruption
// (errors.Is ErrCorrupt, sticky across reopens) or a fact of a relation the
// schema lacks (a plain error, not quarantined), and on success must
// reopen deterministically to the same facts.
func FuzzLogReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 9, 9}) // torn: length header promising absent bytes
	f.Add(validLog())
	del := appendLogRecord(validLog(), opDelete, "", []uint32{0, 1, 2})
	f.Add(appendLogRecord(del, opCommit, "", nil))
	flipped := validLog()
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped) // corrupt mid-file
	unknown := appendLogRecord(appendLogRecord(nil, opSymbol, "Nope", nil), opInsert, "", []uint32{0, 0})
	f.Add(unknown)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		ds, err := OpenDisk(dir, testSchema(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, diskLogFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenDisk(dir, testSchema(), 0)
		if err != nil {
			want := ErrCorrupt
			if !errors.Is(err, want) {
				want = errUnknownRelation
			}
			if !errors.Is(err, want) {
				t.Fatalf("open error neither corruption nor an unknown relation: %v", err)
			}
			if _, err2 := OpenDisk(dir, testSchema(), 0); !errors.Is(err2, want) {
				t.Fatalf("second open = %v, want the first open's %v", err2, want)
			}
			return
		}
		facts := re.Facts()
		if err := re.Close(); err != nil {
			t.Fatalf("clean close after replay: %v", err)
		}
		re2, err := OpenDisk(dir, testSchema(), 0)
		if err != nil {
			t.Fatalf("deterministic reopen failed: %v", err)
		}
		defer re2.Close()
		if got := re2.Facts(); !reflect.DeepEqual(got, facts) {
			t.Fatalf("reopen facts differ:\n first: %v\nsecond: %v", facts, got)
		}
	})
}

// appendSymRecord encodes one legacy symbol record (or, with marker set, a
// v2 commit marker) onto dst, for seeding the legacy decoder.
func appendSymRecord(dst []byte, version int, v string, marker bool) []byte {
	if version < 2 {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		return append(dst, v...)
	}
	k := uint64(len(v)) + 1
	if marker {
		k = 0
	}
	dst = binary.AppendUvarint(dst, k)
	dst = append(dst, v...)
	return binary.LittleEndian.AppendUint32(dst, crc32c([]byte(v)))
}

// FuzzSymtabReplay feeds arbitrary bytes to the legacy (v2) symbol-table
// decoder that migration runs: no panic, failures are typed *CorruptError,
// and the intact prefix a success reports decodes to the same symbols with
// nothing torn.
func FuzzSymtabReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{200, 1, 'x'}) // torn tail
	f.Add(appendSymRecord(nil, 2, "alpha", false))
	two := appendSymRecord(appendSymRecord(nil, 2, "alpha", false), 2, "", false)
	f.Add(appendSymRecord(two, 2, "", true)) // two symbols + marker
	flipped := append([]byte(nil), two...)
	flipped[2] ^= 0x04
	f.Add(appendSymRecord(flipped, 2, "", true))
	f.Add(appendSymRecord(nil, 1, "legacy", false)) // v1-shaped bytes under v2

	f.Fuzz(func(t *testing.T, data []byte) {
		syms, good, err := decodeLegacySymbols(data, 2, legacySymsFile)
		if err != nil {
			var cerr *CorruptError
			if !errors.As(err, &cerr) {
				t.Fatalf("decode error not *CorruptError: %v", err)
			}
			return
		}
		again, good2, err := decodeLegacySymbols(data[:good], 2, legacySymsFile)
		if err != nil || good2 != good {
			t.Fatalf("intact prefix re-decodes to %d bytes, %v; want %d, nil", good2, err, good)
		}
		if !reflect.DeepEqual(again, syms) {
			t.Fatalf("intact prefix decodes to %q, want %q", again, syms)
		}
	})
}
