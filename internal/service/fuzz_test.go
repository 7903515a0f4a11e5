package service

import (
	"encoding/json"
	"testing"
)

// FuzzSpecCanonical pins what store recovery relies on (run under `make
// fuzz-short`): recoverArchived re-parses every sidecar's JSON spec and
// drops the entry unless it hashes to its key, and finishJob writes that
// sidecar as json.Marshal of the normalized spec. So:
//
//  1. ParseSpec never panics on arbitrary bytes.
//  2. For every spec it accepts, json.Marshal of the result parses again
//     to the same Canonical() encoding and the same Hash().
func FuzzSpecCanonical(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"table1","n":240,"nonzer":4,"niter":1,"cgits":2}`,
		`{"kind":"table2","n":64,"tile":16,"format":"json"}`,
		`{"kind":"figure1"}`,
		`{"kind":"sweep","family":"sram","fast":true}`,
		`{"kind":"sweep","family":"sram","fast":true,"tier":"twin"}`,
		`{"kind":"sim","workload":"mmp","mode":"remap","prefetch":"both"}`,
		`{"kind":"table1","shift":-0,"rcond":1e-300}`,
		`{"kind":"bogus"}`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec %+v does not marshal: %v", s, err)
		}
		again, err := ParseSpec(raw)
		if err != nil {
			t.Fatalf("re-parse of %s failed: %v", raw, err)
		}
		if again.Canonical() != s.Canonical() {
			t.Fatalf("canonical encoding changed on re-parse:\n first %s\nsecond %s", s.Canonical(), again.Canonical())
		}
		if again.Hash() != s.Hash() {
			t.Fatalf("hash changed on re-parse: %s -> %s (%s)", s.Hash(), again.Hash(), s.Canonical())
		}
	})
}
