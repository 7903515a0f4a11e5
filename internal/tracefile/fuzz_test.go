package tracefile

import (
	"testing"

	"impulse/internal/core"
	"impulse/internal/workloads"
)

// fuzzSeedTrace records one real v2 trace (an Impulse scatter/gather CG
// run at a tiny geometry) to seed the corpus with every opcode the
// recorder emits: load/store deltas, ticks, sections, syscalls, block-TLB
// installs, shadow descriptors with their memory images, and results.
func fuzzSeedTrace(f *testing.F) []byte {
	f.Helper()
	s, err := core.NewSystem(core.Options{Controller: core.Impulse, Prefetch: core.PrefetchMC})
	if err != nil {
		f.Fatal(err)
	}
	rec := RecordRun(s)
	m := workloads.MakeA(tinyCG.N, tinyCG.Nonzer, tinyCG.RCond, tinyCG.Shift)
	if _, err := workloads.RunCG(s, tinyCG, workloads.CGScatterGather, m); err != nil {
		f.Fatal(err)
	}
	data, err := rec.Bytes()
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzTraceDecode throws arbitrary bytes at the v2 decoder. Validate
// must classify every input as well-formed or return an error — never
// panic, never read out of bounds, never loop forever. The seed corpus
// holds one genuine trace plus the malformed shapes the unit tests pin
// (truncation, bit-flips, bad magic, unknown opcodes).
func FuzzTraceDecode(f *testing.F) {
	seed := fuzzSeedTrace(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])    // truncated mid-stream
	f.Add(seed[:len(magicV2)+1]) // header plus one dangling byte
	f.Add(seed[:len(magicV2)])   // header only: valid empty trace
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{'I', 'M', 'P', 'T', 'R', 'C', 0, 1}) // v1 magic
	f.Add([]byte("IMPTRC\x00\x02\xee"))               // unknown opcode
	f.Fuzz(func(t *testing.T, data []byte) {
		// The decoder either accepts or errors; both are fine. Panics
		// and hangs are the failures the fuzzer is hunting.
		_ = Validate(data)
	})
}
