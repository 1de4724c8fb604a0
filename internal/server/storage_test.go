package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/schema"
)

func storageTestSchema() *schema.Schema {
	return schema.New(schema.Relation{Name: "R", Attrs: []string{"a", "b"}})
}

// corruptDiskDir builds a disk store, then flips a bit mid-file so the next
// OpenDisk reports typed corruption and quarantines the directory.
func corruptDiskDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	ds, err := db.OpenDisk(dir, storageTestSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := ds.InsertFact(db.NewFact("R", string(rune('a'+i)), "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(dir, "store.log")
	raw, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(log, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestQuarantinedStoreSurfacesReadyz: when the boot path finds the disk
// store quarantined, the server comes up degraded — /readyz 503 with the
// typed corruption message, data endpoints 503 storage_unavailable — rather
// than silently serving an empty database.
func TestQuarantinedStoreSurfacesReadyz(t *testing.T) {
	dir := corruptDiskDir(t)
	_, err := db.OpenDisk(dir, storageTestSchema(), 0)
	if !errors.Is(err, db.ErrCorrupt) {
		t.Fatalf("OpenDisk over corrupt dir = %v, want ErrCorrupt", err)
	}
	// The boot path (cmd/qocoserver) falls back to an empty placeholder and
	// records the open error.
	srv := New(db.New(storageTestSchema()), core.Config{})
	srv.SetStoreError(err)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	res, rerr := http.Get(ts.URL + "/readyz")
	if rerr != nil {
		t.Fatal(rerr)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz status = %d, want 503", res.StatusCode)
	}
	var ready struct {
		Checks map[string]string `json:"checks"`
	}
	if err := json.NewDecoder(res.Body).Decode(&ready); err != nil {
		t.Fatalf("decoding /readyz: %v", err)
	}
	if msg, ok := ready.Checks["store"]; !ok || !strings.Contains(msg, "corrupt") {
		t.Errorf("store probe = %q, want corruption message", msg)
	}

	for _, path := range []string{"/api/v1/query?q=q()%20:-%20R(x,y)", "/api/v1/db"} {
		res, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("GET %s status = %d, want 503", path, res.StatusCode)
		}
		if res.Header.Get("Retry-After") == "" {
			t.Errorf("GET %s: storage 503 without Retry-After", path)
		}
	}
	res2 := postJSON(t, ts.URL+"/api/v1/clean", map[string]string{"query": "q(x) :- R(x,y)"})
	defer res2.Body.Close()
	if res2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST /api/v1/clean status = %d, want 503", res2.StatusCode)
	}
	// Storage 503s back clients off like the admission shed paths do.
	if res2.Header.Get("Retry-After") == "" {
		t.Error("storage 503 on /api/v1/clean without Retry-After")
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(res2.Body).Decode(&env); err != nil || env.Error.Code != "storage_unavailable" {
		t.Errorf("clean error envelope code = %q (%v), want storage_unavailable", env.Error.Code, err)
	}
}

// TestDiskStoreErrFlipsReadyz: a store that poisons itself mid-flight (the
// sticky Err after a failed append or fsync) flips /readyz without any
// explicit SetStoreError call.
func TestDiskStoreErrFlipsReadyz(t *testing.T) {
	dir := t.TempDir()
	ds, err := db.OpenDisk(dir, storageTestSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	srv := New(ds, core.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	res, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/readyz on a healthy disk store = %d, want 200", res.StatusCode)
	}
	if err := srv.StoreError(); err != nil {
		t.Fatalf("StoreError on healthy store = %v", err)
	}
}

// TestCompactStore: the server compacts a disk-backed store through the
// database write lock; the in-memory backend reports unsupported.
func TestCompactStore(t *testing.T) {
	dir := t.TempDir()
	ds, err := db.OpenDisk(dir, storageTestSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	f := db.NewFact("R", "a", "b")
	if _, err := ds.InsertFact(f); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.DeleteFact(f); err != nil {
		t.Fatal(err)
	}
	srv := New(ds, core.Config{})
	defer srv.Close()
	res, ok, err := srv.CompactStore(0)
	if err != nil || !ok {
		t.Fatalf("CompactStore = %+v, %v, %v", res, ok, err)
	}
	if res.RecordsDropped != 2 {
		t.Errorf("CompactStore result = %+v, want 2 records dropped", res)
	}

	mem := New(db.New(storageTestSchema()), core.Config{})
	defer mem.Close()
	if _, ok, err := mem.CompactStore(0); ok || err != nil {
		t.Errorf("CompactStore on mem backend = %v, %v; want unsupported, nil", ok, err)
	}
}
