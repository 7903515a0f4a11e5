package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func testMeta(hash string, output []byte) Meta {
	return Meta{
		Hash:      hash,
		Kind:      "table1",
		Canonical: "kind=table1&n=240",
		Spec:      json.RawMessage(`{"kind":"table1","n":240}`),
		MIME:      "text/plain; charset=utf-8",
		Output:    output,
		Counters:  []byte("sim.loads 42\n"),
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blob := []byte("columnar-bytes-here")
	if _, err := s.Put(blob, testMeta("aabb", []byte("rendered"))); err != nil {
		t.Fatal(err)
	}
	b, m, ok := s.Get("aabb")
	if !ok {
		t.Fatal("Get missed a just-written entry")
	}
	if !bytes.Equal(b.Data, blob) {
		t.Fatalf("blob bytes differ: %q", b.Data)
	}
	if m.Kind != "table1" || string(m.Output) != "rendered" || string(m.Counters) != "sim.loads 42\n" {
		t.Fatalf("sidecar did not round-trip: %+v", m)
	}
	if m.BlobBytes != int64(len(blob)) || m.BlobSHA256 != Digest(blob) {
		t.Fatalf("integrity fields wrong: %+v", m)
	}
}

// TestRestartRecovery is the durability headline: a second Store opened
// on the same directory serves every completed hash byte-identically.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < 5; i++ {
		h := fmt.Sprintf("hash%02d", i)
		blob := bytes.Repeat([]byte{byte('a' + i)}, 100+i)
		want[h] = blob
		m := testMeta(h, nil)
		m.SavedAt = time.Unix(int64(1000+i), 0).UTC()
		if _, err := s.Put(blob, m); err != nil {
			t.Fatal(err)
		}
	}
	s.Close() // caller-provided dir: files must survive

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != len(want) {
		t.Fatalf("recovered %d entries, want %d", r.Len(), len(want))
	}
	hashes := r.Hashes()
	for i := 1; i < len(hashes); i++ {
		mi, _ := r.Meta(hashes[i-1])
		mj, _ := r.Meta(hashes[i])
		if mi.SavedAt.After(mj.SavedAt) {
			t.Fatalf("Hashes not oldest-first: %v", hashes)
		}
	}
	for h, blob := range want {
		b, _, ok := r.Get(h)
		if !ok {
			t.Fatalf("recovered store missed %s", h)
		}
		if !bytes.Equal(b.Data, blob) {
			t.Fatalf("%s: recovered bytes differ", h)
		}
	}
}

// TestCrashMidArchive pins the crash window the temp-file + rename
// protocol exists for: a daemon died after writing the temp file but
// before the rename. Restart must ignore the orphan, keep serving every
// completed hash byte-identically, and GC must unlink the orphan.
func TestCrashMidArchive(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	done := []byte("the-complete-result")
	if _, err := s.Put(done, testMeta("done00", nil)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate the crash: a temp file that never renamed.
	orphan := filepath.Join(dir, "dead01"+tmpMark+"123456")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	// And the other mid-crash shape: a blob that renamed but whose
	// sidecar never did (its temp sidecar also still around).
	if err := os.WriteFile(filepath.Join(dir, "dead02"+BlobExt), []byte("no-sidecar"), 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 1 {
		t.Fatalf("recovery trusted %d entries, want 1 (orphans must be ignored)", r.Len())
	}
	if _, _, ok := r.Get("dead01"); ok {
		t.Fatal("recovery served the orphaned temp write")
	}
	b, _, ok := r.Get("done00")
	if !ok || !bytes.Equal(b.Data, done) {
		t.Fatalf("completed entry not byte-identical after crash-restart: ok=%v", ok)
	}

	if n := r.GC(); n != 2 {
		t.Fatalf("GC unlinked %d orphans, want 2 (temp file + sidecar-less blob)", n)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("GC left the orphaned temp file on disk")
	}
	if _, err := os.Stat(filepath.Join(dir, "dead02"+BlobExt)); !os.IsNotExist(err) {
		t.Fatal("GC left the sidecar-less blob on disk")
	}
	// The completed entry survives GC untouched.
	if b2, _, ok := r.Get("done00"); !ok || !bytes.Equal(b2.Data, done) {
		t.Fatal("GC damaged a complete entry")
	}
}

func TestCorruptBlobDropped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("pristine-result-bytes")
	if _, err := s.Put(blob, testMeta("c0ffee", nil)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Flip bytes without changing the size: recovery's size check
	// passes, the digest check on first Get must not.
	path := filepath.Join(dir, "c0ffee"+BlobExt)
	bad := bytes.ToUpper(blob)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 1 {
		t.Fatalf("size-matched corrupt entry should index (lazy verify), got %d", r.Len())
	}
	if _, _, ok := r.Get("c0ffee"); ok {
		t.Fatal("Get served a blob whose bytes do not match the sidecar digest")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt blob was not unlinked")
	}
}

func TestReplaceKeepsReaders(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b1, err := s.Put([]byte("version-one"), testMeta("swap", nil))
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte(nil), b1.Data...)
	if _, err := s.Put([]byte("version-two!"), testMeta("swap", nil)); err != nil {
		t.Fatal(err)
	}
	b2, _, _ := s.Get("swap")
	if !bytes.Equal(b2.Data, []byte("version-two!")) {
		t.Fatalf("Get returned stale bytes after replace: %q", b2.Data)
	}
	// The old Blob (b1) still reads its original content.
	if !bytes.Equal(b1.Data, old) {
		t.Fatalf("replaced blob's old bytes changed: %q", b1.Data)
	}
}

// TestBlobSurvivesFileDamage pins where a live blob's bytes sit: in the
// store's memory, not in its file. Rewriting a byte of the file in place
// and then truncating it change nothing a held Blob reads, both for an
// entry this process Put and for one a reopened store read and verified.
func TestBlobSurvivesFileDamage(t *testing.T) {
	dir := t.TempDir()
	want := bytes.Repeat([]byte("columnar-result-row "), 75) // 1,500 bytes
	damage := func(t *testing.T, b *Blob) {
		t.Helper()
		f, err := os.OpenFile(filepath.Join(dir, "d00d"+BlobExt), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt([]byte{'~'}, int64(len(want)/2)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Data, want) {
			t.Error("held bytes changed when the file was rewritten in place")
		}
		if err := f.Truncate(0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Data, want) {
			t.Error("held bytes changed when the file was truncated")
		}
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Put(append([]byte(nil), want...), testMeta("d00d", nil))
	if err != nil {
		t.Fatal(err)
	}
	damage(t, b)
	// Write the entry again, whole, for a reopened store to recover.
	if _, err := s.Put(append([]byte(nil), want...), testMeta("d00d", nil)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	b, _, ok := r.Get("d00d")
	if !ok || !bytes.Equal(b.Data, want) {
		t.Fatalf("reopened store did not serve the entry: ok=%v", ok)
	}
	damage(t, b)
	if b2, _, ok := r.Get("d00d"); !ok || !bytes.Equal(b2.Data, want) {
		t.Errorf("Get after the file was damaged: ok=%v, bytes equal=%v", ok, ok && bytes.Equal(b2.Data, want))
	}
}

func TestWritable(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Writable(); err != nil {
		t.Fatalf("fresh temp dir not writable: %v", err)
	}
}

// BenchmarkStoreHitRestart measures the restart-hit path end to end:
// open a store that another "process" populated, then Get (read +
// verify) and read a cached result — what a rebooted daemon pays to
// serve yesterday's cache hit without re-executing the experiment.
func BenchmarkStoreHitRestart(b *testing.B) {
	dir := b.TempDir()
	blob := bytes.Repeat([]byte("impulse-columnar-result-row "), 1024) // ~28 KiB
	{
		s, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Put(blob, testMeta("bench0", nil)); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		got, _, ok := s.Get("bench0")
		if !ok || len(got.Data) != len(blob) {
			b.Fatal("restart hit missed")
		}
		s.Close()
	}
}

// BenchmarkStoreHitWarm is the steady-state companion: the entry is
// already read and verified, so a hit is one map lookup.
func BenchmarkStoreHitWarm(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	blob := bytes.Repeat([]byte("impulse-columnar-result-row "), 1024)
	if _, err := s.Put(blob, testMeta("bench1", nil)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := s.Get("bench1"); !ok {
			b.Fatal("warm hit missed")
		}
	}
}
