package server

import (
	"net/http"

	"repro/internal/db"
)

// Storage health surfacing: a disk-backed store that has poisoned itself
// (failed append or fsync) or failed to open at all (quarantined after
// detected corruption) must flip /readyz and turn data endpoints into
// explicit 503s — the one thing a query-oriented cleaner must never do is
// silently serve answers over a database it knows is damaged.

// SetStoreError records a sticky storage error observed outside the store
// itself — e.g. the boot path opened a quarantined disk store and is
// serving in degraded mode. It is surfaced by /readyz ("store" probe) and
// every data endpoint.
func (s *Server) SetStoreError(err error) {
	s.mu.Lock()
	s.storeErr = err
	s.mu.Unlock()
}

// StoreError reports the effective storage error: an explicit
// SetStoreError, or the store's own sticky write-path error when the
// backend exposes one (db.DiskStore.Err).
func (s *Server) StoreError() error {
	s.mu.Lock()
	err := s.storeErr
	s.mu.Unlock()
	if err != nil {
		return err
	}
	type errStore interface{ Err() error }
	if es, ok := s.d.(errStore); ok {
		s.dbMu.RLock()
		err = es.Err()
		s.dbMu.RUnlock()
	}
	return err
}

// storageUnavailable guards a data endpoint: when the store is failing it
// writes a 503 and returns true. The 503 carries Retry-After like the
// admission shed paths, so clients back off the same way whether the server
// is overloaded or its storage is down.
func (s *Server) storageUnavailable(w http.ResponseWriter) bool {
	err := s.StoreError()
	if err == nil {
		return false
	}
	setRetryAfter(w, defaultRetryAfter)
	writeAPIError(w, http.StatusServiceUnavailable, "storage_unavailable", err.Error())
	return true
}

// CompactStore rewrites garbage-heavy segment shards of a disk-backed
// store (db.DiskStore.Compact), serialized against jobs and queries via the
// database write lock. The second return is false when the backend does not
// support compaction (the in-memory store); that is not an error.
func (s *Server) CompactStore(minGarbage float64) (db.CompactionResult, bool, error) {
	type compactor interface {
		Compact(float64) (db.CompactionResult, error)
	}
	c, ok := s.d.(compactor)
	if !ok {
		return db.CompactionResult{}, false, nil
	}
	s.dbMu.Lock()
	defer s.dbMu.Unlock()
	res, err := c.Compact(minGarbage)
	return res, true, err
}
