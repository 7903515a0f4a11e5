// Package store is the persistent content-addressed result store: one
// `.impres` blob plus one `.json` manifest sidecar per canonical spec
// hash, on disk, surviving daemon restarts. It is the durable half of
// the impulsed result cache — the in-memory LRU in internal/service
// decides *what* stays cached; this package makes whatever is cached
// outlive the process, so a rebooted daemon serves yesterday's cache
// hits from disk through the same mmap path without re-executing
// anything.
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
//   - Blob bytes are verified against the sidecar's SHA-256 once, on
//     first Get after recovery (entries written by this process skip
//     the check — we just produced the bytes). A corrupt blob is
//     dropped and unlinked instead of served.
//   - GC removes orphaned temp files, sidecar-less blobs and blob-less
//     sidecars, never a complete entry: eviction is the service LRU's
//     call. It assumes exclusive ownership of the directory (one daemon
//     per store dir; fleet shards each get their own).
//
// Served blobs are memory-mapped read-only and shared, exactly like the
// pre-store in-process archive: an entry's pages stay valid for readers
// that hold its Blob even after Remove unlinks the file, and the
// mapping is released by a finalizer once the Blob is unreachable.
// Because Go's liveness is precise, any reader holding only a slice of
// Blob.Data must runtime.KeepAlive whatever pins the Blob past the last
// use of those bytes (see internal/service).
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
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

// Blob is one stored result blob, mapped when the platform supports it.
type Blob struct {
	// Data is the blob's bytes: a read-only shared mapping of the file
	// when Mapped, else a heap copy.
	Data   []byte
	Mapped bool

	path  string
	unmap func() // non-nil iff Mapped
}

// Path returns the file the blob was stored at (the mapping's backing
// file while it exists — Remove unlinks it without invalidating the
// mapping).
func (b *Blob) Path() string { return b.path }

// entry is the store's in-memory record of one hash.
type entry struct {
	meta     Meta
	blob     *Blob // nil until first Get (recovered entries map lazily)
	verified bool  // blob bytes checked against meta.BlobSHA256
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
// exists with the recorded size. Byte content is verified lazily on
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
// the blob mapped. Write order is blob-then-sidecar, each temp-file +
// rename, so a visible sidecar always describes a complete blob. An
// existing entry for the hash is replaced; mappings held by current
// readers stay valid.
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
	b := newBlob(s.blobPath(meta.Hash), blob)
	s.mu.Lock()
	s.entries[meta.Hash] = &entry{meta: meta, blob: b, verified: true}
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

// newBlob maps path (falling back to the in-memory bytes where mmap is
// unavailable) and arranges for the mapping to be released when the
// Blob is collected.
func newBlob(path string, data []byte) *Blob {
	b := &Blob{Data: data, path: path}
	if mapped, unmap, err := mapFile(path, len(data)); err == nil {
		b.Data, b.Mapped, b.unmap = mapped, true, unmap
		// The munmap runs under precise liveness: see the package
		// comment — readers pin the Blob past their last byte access.
		runtime.SetFinalizer(b, func(b *Blob) { b.unmap() })
	}
	return b
}

// Get returns the blob and sidecar for hash, mapping (and, for entries
// recovered from a previous process, verifying) it on first use. A
// recovered blob whose bytes do not match the sidecar digest is
// dropped and unlinked — a torn or tampered file is a cache miss, not
// a wrong answer.
func (s *Store) Get(hash string) (*Blob, Meta, bool) {
	s.mu.Lock()
	e, ok := s.entries[hash]
	if !ok {
		s.mu.Unlock()
		return nil, Meta{}, false
	}
	if e.blob != nil && e.verified {
		b, m := e.blob, e.meta
		s.mu.Unlock()
		return b, m, true
	}
	s.mu.Unlock()

	// Load outside the lock (first touch of a recovered entry; disk IO).
	data, err := os.ReadFile(s.blobPath(hash))
	if err != nil || int64(len(data)) != e.meta.BlobBytes || Digest(data) != e.meta.BlobSHA256 {
		s.Remove(hash)
		return nil, Meta{}, false
	}
	b := newBlob(s.blobPath(hash), data)
	// Verify the *mapped* bytes when we got a mapping: the mapping, not
	// the heap copy, is what readers will be served.
	if b.Mapped && Digest(b.Data) != e.meta.BlobSHA256 {
		s.Remove(hash)
		return nil, Meta{}, false
	}
	s.mu.Lock()
	if cur, ok := s.entries[hash]; ok && cur == e {
		e.blob, e.verified = b, true
	}
	m := e.meta
	s.mu.Unlock()
	return b, m, true
}

// Remove drops hash from the store and unlinks both files. Mappings
// held by current readers survive the unlink.
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
// private temp-dir store removes everything. Established mappings are
// left to their finalizers either way.
func (s *Store) Close() {
	s.mu.Lock()
	s.entries = make(map[string]*entry)
	s.mu.Unlock()
	if s.own {
		os.RemoveAll(s.dir)
	}
}

// errMmapUnsupported reports why mapFile is unavailable on this
// platform (see mmap_fallback.go).
var errMmapUnsupported = fmt.Errorf("store: mmap unsupported on this platform")
