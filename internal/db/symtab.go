package db

import "sync"

// symtab interns constant values to dense uint32 IDs. Interning is what
// lets the disk store hold each distinct string once no matter how many
// tuples reference it; the store log defines each symbol once, before the
// first fact record that uses it (record.go). A symtab is shared between a
// DiskStore and all its snapshots, so it carries its own lock.
type symtab struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	strs []string
}

// newSymtab returns an empty symbol table.
func newSymtab() *symtab {
	return &symtab{ids: make(map[string]uint32)}
}

// intern returns the ID for v, assigning the next one if v is new; added
// reports whether it did.
func (s *symtab) intern(v string) (id uint32, added bool) {
	s.mu.RLock()
	id, ok := s.ids[v]
	s.mu.RUnlock()
	if ok {
		return id, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.ids[v]; ok {
		return id, false
	}
	return s.addLocked(v), true
}

// addLocked assigns v the next ID even if v already has one: a log defines
// its symbols by position, so replay must number every definition. Lookups
// then find the newest ID, and either ID resolves to v. The caller holds
// s.mu.
func (s *symtab) addLocked(v string) uint32 {
	id := uint32(len(s.strs))
	s.ids[v] = id
	s.strs = append(s.strs, v)
	return id
}

// lookup returns the ID for v without assigning one.
func (s *symtab) lookup(v string) (uint32, bool) {
	s.mu.RLock()
	id, ok := s.ids[v]
	s.mu.RUnlock()
	return id, ok
}

// str resolves an ID the table assigned back to its string.
func (s *symtab) str(id uint32) string {
	s.mu.RLock()
	v := s.strs[id]
	s.mu.RUnlock()
	return v
}

// all returns the interned strings, indexed by ID. Entries never change
// once interned, so the slice stays valid while later symbols are appended
// past its end.
func (s *symtab) all() []string {
	s.mu.RLock()
	strs := s.strs
	s.mu.RUnlock()
	return strs
}

// size returns the number of interned symbols.
func (s *symtab) size() int {
	s.mu.RLock()
	n := len(s.strs)
	s.mu.RUnlock()
	return n
}
