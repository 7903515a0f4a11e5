package store

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreRecover pins recovery's contract over arbitrary files (run
// under `make fuzz-short`): it writes fuzzed sidecar and blob bytes under
// one of three name choices — the hash's own names, another hash's
// sidecar name, or temp names — then restarts on the directory as a
// daemon does: Open, GC, and Get on every hash Hashes lists. Nothing may
// panic, and every served blob must match its sidecar's length and
// SHA-256.
func FuzzStoreRecover(f *testing.F) {
	const hash = "f00d"
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.Put([]byte("columnar-result-bytes"), testMeta(hash, []byte("rendered"))); err != nil {
		f.Fatal(err)
	}
	s.Close()
	side, err := os.ReadFile(filepath.Join(dir, hash+MetaExt))
	if err != nil {
		f.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, hash+BlobExt))
	if err != nil {
		f.Fatal(err)
	}
	corrupt := append([]byte(nil), blob...)
	corrupt[0] ^= 0xff
	f.Add(side, blob, uint8(0))               // a valid entry written by Put
	f.Add(side[:len(side)/2], blob, uint8(0)) // a truncated sidecar
	f.Add(side, blob[:len(blob)-1], uint8(0)) // a blob one byte short
	f.Add(side, corrupt, uint8(0))            // a corrupted blob of the right size
	f.Add(side, blob, uint8(1))               // a sidecar that names another hash
	f.Add(side, blob, uint8(2))               // a write that never renamed

	f.Fuzz(func(t *testing.T, side, blob []byte, names uint8) {
		dir := t.TempDir()
		sideName, blobName := hash+MetaExt, hash+BlobExt
		switch names % 3 {
		case 1:
			sideName = "beef" + MetaExt
		case 2:
			sideName, blobName = hash+tmpMark+"1", hash+tmpMark+"2"
		}
		for name, data := range map[string][]byte{sideName: side, blobName: blob} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.GC()
		for _, h := range s.Hashes() {
			b, m, ok := s.Get(h)
			if !ok {
				continue
			}
			if int64(len(b.Data)) != m.BlobBytes || Digest(b.Data) != m.BlobSHA256 {
				t.Fatalf("%s served %d bytes (sha256 %s) against sidecar %d bytes (sha256 %s)",
					h, len(b.Data), Digest(b.Data), m.BlobBytes, m.BlobSHA256)
			}
		}
	})
}
