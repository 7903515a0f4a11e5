// Package store is the persistent content-addressed result store: one
// `.impres` blob plus one `.json` manifest sidecar per canonical spec
// hash, on disk, surviving daemon restarts. It is the durable half of
// the impulsed result cache — the in-memory LRU in internal/service
// decides *what* stays cached; this package makes whatever is cached
// outlive the process, so a rebooted daemon serves yesterday's cache
// hits without re-executing anything.
//
// Durability contract:
//
//   - Writes are temp-file + rename, blob first, sidecar second. A
//     crash at any instant leaves either a complete entry (both files
//     renamed), a blob with no sidecar, or an orphaned temp file —
//     never a torn entry that recovery would trust.
//   - Recovery (Open) trusts only hashes with a parseable sidecar whose
//     recorded blob size matches the file on disk. Everything else is
//     ignored until GC unlinks it.
//   - Blob bytes are read and verified against the sidecar's size and
//     SHA-256 once, on the first Get after recovery (entries written by
//     this process skip the check — we just produced the bytes). A
//     corrupt blob is dropped and unlinked instead of served.
//   - GC removes orphaned temp files, sidecar-less blobs and blob-less
//     sidecars, never a complete entry: eviction is the service LRU's
//     call. It assumes exclusive ownership of the directory (one daemon
//     per store dir; fleet shards each get their own).
//
// A live entry's bytes sit in the heap, not in the file: once Put has
// written them or Get has verified them, nothing the file goes through
// afterwards (a rewrite, a truncation, an unlink) changes what readers
// holding the Blob see.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Meta is the manifest sidecar persisted next to each blob: everything
// the daemon needs to reconstruct the finished job's wire-visible
// result byte-identically after a restart, plus integrity fields
// (size, digest) recovery validates before trusting the blob.
type Meta struct {
	// Hash is the canonical spec hash the entry is addressed by.
	Hash string `json:"hash"`
	// Kind and Canonical identify the experiment (service.Spec.Kind and
	// its frozen canonical encoding); Spec is the normalized spec JSON,
	// re-parsed at recovery so the restored job carries the same spec a
	// live submission would have.
	Kind      string          `json:"kind"`
	Canonical string          `json:"canonical"`
	Spec      json.RawMessage `json:"spec"`
	// MIME is the result's content type. Tier is the serving tier that
	// produced it ("twin" for analytical answers, empty for simulation).
	MIME string `json:"mime"`
	Tier string `json:"tier,omitempty"`
	// ColumnarBlob marks the blob as a colres columnar document (grid
	// results; views render from it). OutputIsBlob says the result's
	// Output field is the blob bytes themselves; otherwise Output holds
	// the rendered output (text/json views are small — the columns are
	// the big payload, and they live in the blob).
	ColumnarBlob bool   `json:"columnar_blob"`
	OutputIsBlob bool   `json:"output_is_blob"`
	Output       []byte `json:"output,omitempty"`
	// Counters is the job's counter-registry dump, byte-preserved.
	Counters []byte `json:"counters,omitempty"`
	// Integrity: blob length and SHA-256, checked before a recovered
	// blob is served.
	BlobBytes  int64  `json:"blob_bytes"`
	BlobSHA256 string `json:"blob_sha256"`
	// SavedAt orders recovery: Hashes lists entries oldest first, the
	// order a restarted daemon rebuilds its LRU in. The store knows when
	// an entry was written, not when it was last used, so the LRU in
	// internal/service, not the store, decides which entries stay.
	SavedAt time.Time `json:"saved_at"`
}

// Blob is one stored result blob.
type Blob struct {
	// Data is the blob's bytes, verified against the sidecar's size and
	// SHA-256. Readers must not modify them.
	Data []byte
}

// entry is the store's in-memory record of one hash.
type entry struct {
	meta Meta
	blob *Blob // verified bytes; nil until a recovered entry's first Get
}

// Store owns one result-store directory.
type Store struct {
	dir string
	own bool // dir is a private temp dir; Close removes everything

	mu      sync.Mutex
	entries map[string]*entry
}

const (
	// BlobExt and MetaExt are the store's on-disk file extensions: one
	// <hash>.impres blob plus one <hash>.impres.json manifest sidecar
	// per entry. Exported for tooling and tests that inspect a store
	// directory from outside.
	BlobExt = ".impres"
	MetaExt = ".impres.json"
	tmpMark = ".tmp-"
)

// Open opens (or creates) the store at dir and indexes every complete
// entry already on disk. An empty dir gets a private temporary
// directory that Close removes — the ephemeral mode tests and
// single-shot daemons use; persistence needs a real path.
func Open(dir string) (*Store, error) {
	own := false
	if dir == "" {
		d, err := os.MkdirTemp("", "impulse-store-")
		if err != nil {
			return nil, err
		}
		dir, own = d, true
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, own: own, entries: make(map[string]*entry)}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover indexes complete entries: a parseable sidecar whose blob file
// exists with the recorded size. Byte content is read and verified on
// first Get; everything recovery rejects is left for GC.
func (s *Store) recover() error {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, de := range names {
		name := de.Name()
		if !strings.HasSuffix(name, MetaExt) || strings.Contains(name, tmpMark) {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			continue
		}
		var m Meta
		if err := json.Unmarshal(raw, &m); err != nil || m.Hash == "" {
			continue
		}
		if name != m.Hash+MetaExt {
			continue // sidecar does not belong to the hash it claims
		}
		fi, err := os.Stat(s.blobPath(m.Hash))
		if err != nil || fi.Size() != m.BlobBytes {
			continue
		}
		s.entries[m.Hash] = &entry{meta: m}
	}
	return nil
}

func (s *Store) blobPath(hash string) string { return filepath.Join(s.dir, hash+BlobExt) }
func (s *Store) metaPath(hash string) string { return filepath.Join(s.dir, hash+MetaExt) }

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of complete entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Hashes returns every stored hash, oldest SavedAt first — the order a
// recovering daemon should restore its LRU in; that LRU, in
// internal/service, decides which of them stay cached.
func (s *Store) Hashes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	type rec struct {
		hash string
		at   time.Time
	}
	recs := make([]rec, 0, len(s.entries))
	for h, e := range s.entries {
		recs = append(recs, rec{h, e.meta.SavedAt})
	}
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].at.Equal(recs[j].at) {
			return recs[i].at.Before(recs[j].at)
		}
		return recs[i].hash < recs[j].hash
	})
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.hash
	}
	return out
}

// Meta returns the sidecar for hash, if stored.
func (s *Store) Meta(hash string) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[hash]
	if !ok {
		return Meta{}, false
	}
	return e.meta, true
}

// Digest is the store's blob digest: hex SHA-256.
func Digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Put durably stores blob and its sidecar under meta.Hash and returns
// the stored Blob, which keeps blob itself: the caller must not modify
// those bytes afterwards. Write order is blob-then-sidecar, each
// temp-file + rename, so a visible sidecar always describes a complete
// blob. An existing entry for the hash is replaced; Blobs held by
// current readers keep their bytes.
func (s *Store) Put(blob []byte, meta Meta) (*Blob, error) {
	if meta.Hash == "" {
		return nil, fmt.Errorf("store: Put with empty hash")
	}
	meta.BlobBytes = int64(len(blob))
	meta.BlobSHA256 = Digest(blob)
	if meta.SavedAt.IsZero() {
		meta.SavedAt = time.Now().UTC()
	}
	if err := writeAtomic(s.dir, s.blobPath(meta.Hash), meta.Hash, blob); err != nil {
		return nil, err
	}
	side, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := writeAtomic(s.dir, s.metaPath(meta.Hash), meta.Hash, side); err != nil {
		return nil, err
	}
	b := &Blob{Data: blob}
	s.mu.Lock()
	s.entries[meta.Hash] = &entry{meta: meta, blob: b}
	s.mu.Unlock()
	return b, nil
}

// writeAtomic writes data to path via a temp file in dir plus rename.
// The temp name carries both the hash and the tmpMark so GC can
// recognize (and a crashed write leaves behind) an obvious orphan.
func writeAtomic(dir, path, hash string, data []byte) error {
	tmp, err := os.CreateTemp(dir, hash+tmpMark+"*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Get returns the blob and sidecar for hash. A recovered entry's first
// Get reads its file once and checks the size and SHA-256 the sidecar
// records; a blob that does not match is dropped and unlinked — a torn
// or tampered file is a cache miss, not a wrong answer — and one that
// matches is kept for every later Get.
func (s *Store) Get(hash string) (*Blob, Meta, bool) {
	s.mu.Lock()
	e, ok := s.entries[hash]
	if !ok {
		s.mu.Unlock()
		return nil, Meta{}, false
	}
	if e.blob != nil {
		b, m := e.blob, e.meta
		s.mu.Unlock()
		return b, m, true
	}
	s.mu.Unlock()

	// Read outside the lock (first touch of a recovered entry; disk IO).
	data, err := os.ReadFile(s.blobPath(hash))
	if err != nil || int64(len(data)) != e.meta.BlobBytes || Digest(data) != e.meta.BlobSHA256 {
		s.Remove(hash)
		return nil, Meta{}, false
	}
	b := &Blob{Data: data}
	s.mu.Lock()
	if cur, ok := s.entries[hash]; ok && cur == e {
		e.blob = b
	}
	m := e.meta
	s.mu.Unlock()
	return b, m, true
}

// Remove drops hash from the store and unlinks both files. Blobs held
// by current readers keep their bytes.
func (s *Store) Remove(hash string) {
	s.mu.Lock()
	delete(s.entries, hash)
	s.mu.Unlock()
	os.Remove(s.blobPath(hash))
	os.Remove(s.metaPath(hash))
}

// GC unlinks junk: temp files left by crashed writes, blobs without a
// sidecar, and sidecars recovery did not index (no blob, a size
// mismatch, unparseable, or naming another hash). It never removes a
// complete entry — the in-memory LRU in internal/service decides what
// stays cached — and returns how many files it removed. Call it at
// daemon startup, before recovery is served; it assumes no concurrent
// writer shares the directory.
func (s *Store) GC() int {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	s.mu.Lock()
	known := make(map[string]bool, len(s.entries))
	for h := range s.entries {
		known[h] = true
	}
	s.mu.Unlock()
	removed := 0
	for _, de := range names {
		name := de.Name()
		var junk bool
		switch {
		case strings.Contains(name, tmpMark):
			// A temp file from a write that never renamed: the crashed
			// mid-archive window the recovery tests pin.
			junk = true
		case strings.HasSuffix(name, MetaExt):
			junk = !known[strings.TrimSuffix(name, MetaExt)]
		case strings.HasSuffix(name, BlobExt):
			junk = !known[strings.TrimSuffix(name, BlobExt)]
		}
		if junk && os.Remove(filepath.Join(s.dir, name)) == nil {
			removed++
		}
	}
	return removed
}

// Writable probes that the directory still accepts writes — the
// readiness check pulling a daemon with a full or read-only disk out of
// rotation before results start failing to persist.
func (s *Store) Writable() error {
	f, err := os.CreateTemp(s.dir, ".readyz-probe-")
	if err != nil {
		return fmt.Errorf("store not writable: %v", err)
	}
	name := f.Name()
	f.Close()
	os.Remove(name)
	return nil
}

// Close releases the in-memory index. A store on a caller-provided
// directory keeps its files — surviving restart is the point; only a
// private temp-dir store removes everything. Blobs held by readers keep
// their bytes either way.
func (s *Store) Close() {
	s.mu.Lock()
	s.entries = make(map[string]*entry)
	s.mu.Unlock()
	if s.own {
		os.RemoveAll(s.dir)
	}
}
