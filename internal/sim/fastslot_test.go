package sim

import (
	"testing"

	"impulse/internal/addr"
	"impulse/internal/obs"
	"impulse/internal/stats"
)

// slotOutcome is everything a re-read and re-write of a displaced line
// can show: the values read, the clock, every MemStats counter and the
// trace events of the two accesses.
type slotOutcome struct {
	read, reread uint64
	clock        uint64
	st           stats.MemStats
	events       []TraceEvent
}

// TestFastPathSlotOwnership pins invariant 2 of fastpath.go: a line is
// committed on the fast table, displaced from its L1 slot in one of the
// ways a slot's line can change, then re-read and re-written. Each step
// after the displacement must match the reference path exactly: the
// re-read misses the L1 there, so a surviving fast entry would commit a
// hit it must not. Each displacement leaves the slot empty or holding a
// line that never enters the table (one whose translation does not
// preserve line offsets, or a prefetched copy), so only the kill in that
// path keeps the stale entry from serving the re-read.
func TestFastPathSlotOwnership(t *testing.T) {
	l1 := DefaultConfig().L1.Bytes
	cases := []struct {
		name     string
		prefetch bool
		displace func(m *Machine, a addr.VAddr)
	}{
		{"demand-fill", false, func(m *Machine, a addr.VAddr) {
			// Same L1 set as a, through the block entry installed below.
			m.Load64(a + addr.VAddr(1<<30))
		}},
		{"l1-prefetch-fill", true, func(m *Machine, a addr.VAddr) {
			// The demand miss on the line before a+l1 prefetches a+l1
			// into a's slot.
			m.Load64(a + addr.VAddr(l1) - 32)
		}},
		{"flush-line", false, func(m *Machine, a addr.VAddr) { m.FlushVRange(a, 32) }},
		{"purge-line", false, func(m *Machine, a addr.VAddr) { m.PurgeVRange(a, 32) }},
		{"flush-all", false, func(m *Machine, a addr.VAddr) { m.FlushAllCaches() }},
		{"reset-untimed", false, func(m *Machine, a addr.VAddr) { m.ResetCachesUntimed() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(disable bool) slotOutcome {
				m := testMachineWith(t, func(c *Config) {
					c.DisableFastPath = disable
					c.L1Prefetch = tc.prefetch
				})
				h := obs.New(obs.Config{})
				m.AttachObs(h)
				buf := alloc(t, m, 2*l1)
				other := alloc(t, m, addr.PageSize)
				a := buf + 64 // not at a page start: a+l1-32 shares a+l1's page
				// A block entry whose bus base is 8 bytes off the line
				// grid: lines behind it never enter the fast table.
				po, _ := m.TranslateNoFault(other)
				m.InstallBlockTLB(a+addr.VAddr(1<<30), po+8, 64)
				// Warm the TLB for a+l1's page, so no walk during the
				// displacement bumps the generation and hides a stale
				// entry.
				m.Load64(a + addr.VAddr(l1) + 1024)
				m.Store64(a, 0xA1)
				m.Load64(a) // fill: the line enters the table
				before := m.fastHits
				if m.Load64(a+8) != 0 {
					t.Fatal("unwritten word read non-zero")
				}
				if !disable && m.fastHits != before+1 {
					t.Fatal("the repeat hit did not commit on the fast table")
				}
				tc.displace(m, a)
				var out slotOutcome
				m.SetTracer(func(e TraceEvent) { out.events = append(out.events, e) })
				out.read = m.Load64(a)
				m.Store64(a+16, 0xB2)
				out.reread = m.Load64(a + 16)
				out.clock = m.Now()
				out.st = *m.St
				return out
			}
			on, off := run(false), run(true)
			if on.read != 0xA1 || on.reread != 0xB2 {
				t.Errorf("fast on read %#x then %#x, want 0xa1 then 0xb2", on.read, on.reread)
			}
			if on.read != off.read || on.reread != off.reread || on.clock != off.clock {
				t.Errorf("fast on: values %#x %#x at cycle %d; fast off: %#x %#x at cycle %d",
					on.read, on.reread, on.clock, off.read, off.reread, off.clock)
			}
			if on.st != off.st {
				t.Errorf("MemStats differ:\nfast on  %+v\nfast off %+v", on.st, off.st)
			}
			if len(on.events) != len(off.events) {
				t.Fatalf("fast on traced %d events, off %d", len(on.events), len(off.events))
			}
			for i := range off.events {
				if on.events[i] != off.events[i] {
					t.Errorf("trace event %d: fast on %+v, off %+v", i, on.events[i], off.events[i])
				}
			}
		})
	}
}
