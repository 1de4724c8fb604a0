package db

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// On-disk record formats.
//
// v3 (the store log, store.log) frames every record as
//
//	record:  uvarint(len(payload)) payload crc32c(payload)[4, LE]
//	payload: {opSymbol} value-bytes                     — defines the next symbol ID
//	         {opInsert|opDelete} uvarint(relation) ids  — relation is the symbol ID of
//	                                                      its name, then arity × symbol ID
//	         {opCommit}                                 — appended by every Sync
//
// A fact record may reference only symbols defined earlier in the log.
//
// The trailer lets recovery tell a torn tail from corruption. A torn write
// can only leave an INCOMPLETE record: tearing keeps a prefix, and any
// strict prefix of a record either ends inside the body/trailer (too few
// bytes) or inside a multi-byte length varint (whose every strict prefix
// ends with an MSB-set byte and so fails to decode). A record that is
// COMPLETE — its length decodes and all its bytes are present — but
// invalid (checksum mismatch, bad op, undefined symbol ID, implausible
// length, trailing junk) therefore cannot be a tear: it is corruption,
// wherever it sits in the file.
//
// The one ambiguous shape is an incomplete record at EOF whose damage
// *shrank* the file (bit rot plus truncation) — indistinguishable locally
// from a tear. Two mechanisms close it: a byte-granularity resync scan (a
// failed record followed by any later valid record is corruption, since a
// tear ends the file), and commit markers appended on every Sync, which
// guarantee the synced region always ends with a valid record — so
// corruption of synced data is always followed by at least the marker and
// never classifies as a tear.
//
// The legacy formats are only read, to migrate a store to v3 (disk.go):
//
//	v1 segment record: uvarint(len(payload)) payload
//	   payload:        op byte, then arity × uvarint(symbol ID)
//	   symbol record:  uvarint(len(value)) value-bytes
//	v2 segment record: v3's framing; payload is {opInsert|opDelete} + ids, or {opCommit}
//	   symbol record:  uvarint(k) body crc32c(body)[4, LE]
//	                   k = 0 → commit marker, empty body
//	                   k > 0 → body is a symbol value of k−1 bytes
//
// v2 classifies damage as v3 does; v1 carries no checksums, so every v1
// decode failure is a torn-tail candidate.

const (
	// maxSymbolLen bounds one interned symbol (1 MiB); length values past it
	// are corruption, not data.
	maxSymbolLen = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crc32c(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// errShortRecord marks an incomplete record: a candidate torn tail,
// pending the resync scan.
var errShortRecord = errors.New("incomplete record")

// invalidRecord marks a complete record that failed validation —
// corruption by the argument above.
type invalidRecord struct{ reason string }

func (e *invalidRecord) Error() string { return e.reason }

// logRec is one framed record of the store log.
type logRec struct {
	op   byte
	body []byte // the payload after the op byte; aliases the log's bytes
	n    int    // encoded size, header through trailer
}

// parseLogRecord decodes the framing of the record at raw[off:]: its length,
// checksum and op. What a fact record's body means depends on the symbols
// defined before it, so the caller decodes that. Errors are errShortRecord
// (incomplete: torn-tail candidate) or *invalidRecord (complete but corrupt).
func parseLogRecord(raw []byte, off int) (logRec, error) {
	payloadLen, sz := binary.Uvarint(raw[off:])
	if sz == 0 {
		return logRec{}, errShortRecord
	}
	if sz < 0 {
		return logRec{}, &invalidRecord{"length varint overflow"}
	}
	if payloadLen == 0 || payloadLen > 1+maxSymbolLen {
		return logRec{}, &invalidRecord{fmt.Sprintf("implausible record length %d", payloadLen)}
	}
	end := off + sz + int(payloadLen) + 4
	if end > len(raw) {
		return logRec{}, errShortRecord
	}
	payload := raw[off+sz : end-4]
	if got, want := crc32c(payload), binary.LittleEndian.Uint32(raw[end-4:end]); got != want {
		return logRec{}, &invalidRecord{fmt.Sprintf("checksum mismatch: computed %08x, stored %08x", got, want)}
	}
	switch op := payload[0]; op {
	case opCommit:
		if len(payload) != 1 {
			return logRec{}, &invalidRecord{"malformed commit marker"}
		}
	case opSymbol, opInsert, opDelete:
	default:
		return logRec{}, &invalidRecord{fmt.Sprintf("unknown op %d", op)}
	}
	return logRec{op: payload[0], body: payload[1:], n: end - off}, nil
}

// decodeFactBody decodes a fact record's body into ids, reusing its storage:
// the relation's name symbol, then the tuple's symbols, each below symCount
// (defined earlier in the log). It reports false on a malformed body or an
// undefined symbol.
func decodeFactBody(body []byte, symCount uint32, ids []uint32) ([]uint32, bool) {
	ids = ids[:0]
	for len(body) > 0 {
		v, n := binary.Uvarint(body)
		if n <= 0 || v >= uint64(symCount) {
			return ids, false
		}
		ids = append(ids, uint32(v))
		body = body[n:]
	}
	return ids, len(ids) > 0
}

// appendLogRecord encodes one record onto dst: op, then the value bytes of
// a symbol or the uvarint IDs of a fact (nil for a commit marker).
func appendLogRecord(dst []byte, op byte, val string, ids []uint32) []byte {
	n := 1 + len(val)
	for _, id := range ids {
		n += uvarintLen(uint64(id))
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	start := len(dst)
	dst = append(dst, op)
	dst = append(dst, val...)
	for _, id := range ids {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	return binary.LittleEndian.AppendUint32(dst, crc32c(dst[start:]))
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// resyncLog reports whether any byte offset after a failed record frames a
// complete record with a valid checksum — in which case the failure was
// corruption, not a tear (a tear ends the file).
func resyncLog(raw []byte, from int) bool {
	for i := from; i < len(raw); i++ {
		if _, err := parseLogRecord(raw, i); err == nil {
			return true
		}
	}
	return false
}

// classify turns a record that failed to parse at off into a
// *CorruptError, or nil for a torn tail: a complete record that is invalid
// is corruption, and so is an incomplete one when resync finds a valid
// record after it.
func classify(perr error, path string, off int, resync func() bool) error {
	if inv, ok := perr.(*invalidRecord); ok {
		return &CorruptError{Path: path, Offset: int64(off), Reason: inv.reason}
	}
	if resync() {
		return &CorruptError{Path: path, Offset: int64(off), Reason: "incomplete record followed by intact records"}
	}
	return nil
}

// --- Legacy (v1, v2) decoders, for migration only ---

// decodeLegacySymbols decodes a v1 or v2 symbols.dat: its symbols in ID
// order, and the end of its last intact record. A torn tail is dropped:
// the sharded store flushed each symbol before any fact record that used
// it, so no surviving fact references one past the tear. v2 damage
// anywhere else is a *CorruptError.
func decodeLegacySymbols(raw []byte, version int, path string) (strs []string, good int, err error) {
	for off := 0; off < len(raw); off = good {
		r, perr := parseSymRecord(raw, off, version)
		if perr != nil {
			resync := func() bool { return version >= 2 && resyncSym(raw, off+1, version) }
			if cerr := classify(perr, path, off, resync); cerr != nil {
				return nil, good, cerr
			}
			break
		}
		if !r.marker {
			strs = append(strs, r.val)
		}
		good = off + r.n
	}
	return strs, good, nil
}

// maxSegPayload is the largest well-formed legacy segment payload for a
// relation of the given arity.
func maxSegPayload(arity int) uint64 {
	return uint64(1 + binary.MaxVarintLen32*arity)
}

// segRec is one parsed legacy segment record.
type segRec struct {
	op  byte
	ids []uint32
	n   int // encoded size, header through trailer
}

// parseSegRecord decodes the legacy segment record at raw[off:] under the
// given format version, decoding its IDs into ids' storage. Errors are
// errShortRecord or *invalidRecord, as for parseLogRecord; every v1 failure
// is errShortRecord, since the format cannot distinguish the two.
func parseSegRecord(raw []byte, off int, version, arity int, symCount uint32, ids []uint32) (segRec, error) {
	payloadLen, sz := binary.Uvarint(raw[off:])
	if sz == 0 {
		return segRec{}, errShortRecord
	}
	if sz < 0 {
		return segRec{}, segInvalid(version, "length varint overflow")
	}
	if payloadLen == 0 || payloadLen > maxSegPayload(arity) {
		return segRec{}, segInvalid(version, fmt.Sprintf("implausible record length %d", payloadLen))
	}
	end := off + sz + int(payloadLen)
	if version >= 2 {
		end += 4 // CRC trailer
	}
	if end > len(raw) {
		return segRec{}, errShortRecord
	}
	payload := raw[off+sz : off+sz+int(payloadLen)]
	if version >= 2 {
		if got, want := crc32c(payload), binary.LittleEndian.Uint32(raw[end-4:end]); got != want {
			return segRec{}, &invalidRecord{fmt.Sprintf("checksum mismatch: computed %08x, stored %08x", got, want)}
		}
	}
	op := payload[0]
	switch op {
	case opCommit:
		if version < 2 || len(payload) != 1 {
			return segRec{}, segInvalid(version, "malformed commit marker")
		}
		return segRec{op: op, n: end - off}, nil
	case opInsert, opDelete:
		ids, ok := decodeFactBody(payload[1:], symCount, ids)
		if !ok || len(ids) != arity {
			return segRec{}, segInvalid(version, "undecodable record body")
		}
		return segRec{op: op, ids: ids, n: end - off}, nil
	}
	return segRec{}, segInvalid(version, fmt.Sprintf("unknown op %d", op))
}

// segInvalid downgrades invalid verdicts to torn-tail candidates for v1
// files, which carry no checksums to justify the stronger claim.
func segInvalid(version int, reason string) error {
	if version < 2 {
		return errShortRecord
	}
	return &invalidRecord{reason}
}

// symRec is one parsed legacy symbol-table record.
type symRec struct {
	val    string
	marker bool
	n      int
}

// parseSymRecord decodes the legacy symbol record at raw[off:] under the
// given format version, with the same errShortRecord / *invalidRecord
// split as parseSegRecord.
func parseSymRecord(raw []byte, off int, version int) (symRec, error) {
	k, sz := binary.Uvarint(raw[off:])
	if sz == 0 {
		return symRec{}, errShortRecord
	}
	if sz < 0 {
		return symRec{}, segInvalid(version, "length varint overflow")
	}
	if version < 2 {
		// v1: uvarint(len) + bytes, no trailer, no markers, no plausibility
		// cap (exact legacy semantics: present means valid).
		end := off + sz + int(k)
		if end > len(raw) || end < off {
			return symRec{}, errShortRecord
		}
		return symRec{val: string(raw[off+sz : end]), n: end - off}, nil
	}
	if k > maxSymbolLen+1 {
		return symRec{}, &invalidRecord{fmt.Sprintf("implausible symbol length %d", k)}
	}
	vlen := int(k) - 1 // k = 0 is a commit marker with an empty body
	if k == 0 {
		vlen = 0
	}
	end := off + sz + vlen + 4
	if end > len(raw) {
		return symRec{}, errShortRecord
	}
	body := raw[off+sz : off+sz+vlen]
	if got, want := crc32c(body), binary.LittleEndian.Uint32(raw[end-4:end]); got != want {
		return symRec{}, &invalidRecord{fmt.Sprintf("checksum mismatch: computed %08x, stored %08x", got, want)}
	}
	if k == 0 {
		return symRec{marker: true, n: end - off}, nil
	}
	return symRec{val: string(body), n: end - off}, nil
}

// resyncSeg reports whether any byte offset after a failed legacy segment
// record parses as a complete, valid one.
func resyncSeg(raw []byte, from int, version, arity int, symCount uint32) bool {
	var ids []uint32
	for i := from; i < len(raw); i++ {
		if _, err := parseSegRecord(raw, i, version, arity, symCount, ids); err == nil {
			return true
		}
	}
	return false
}

// resyncSym is resyncSeg for the legacy symbol table.
func resyncSym(raw []byte, from int, version int) bool {
	for i := from; i < len(raw); i++ {
		if _, err := parseSymRecord(raw, i, version); err == nil {
			return true
		}
	}
	return false
}
