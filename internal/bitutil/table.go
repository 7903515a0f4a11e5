package bitutil

// Table maps uint64 keys to values of type V without Go map hashing or
// allocation on the hot path. It backs every hot key lookup in the
// simulator: the processor TLB's key -> entry index, the controller's
// pseudo-virtual backing page table and the kernel's process page
// tables. Open addressing with linear
// probing, Fibonacci hashing on the top bits (page and line numbers
// cluster in the low bits), backward-shift deletion (so lookups never
// meet tombstones), and growth at half load. It is an exact map: an
// entry leaves only through Delete or Reset, never by eviction.
//
// The zero value is an empty table that allocates on the first Put;
// Init presizes it.
type Table[V any] struct {
	slots []tableSlot[V]
	shift uint // 64 - log2(len(slots))
	n     int
}

type tableSlot[V any] struct {
	key  uint64
	val  V
	used bool
}

const tableMinSlots = 16

// Init empties the table and sizes it so that capacity keys fit without
// growing.
func (t *Table[V]) Init(capacity int) {
	size, shift := tableMinSlots, uint(64-4)
	for size < 2*capacity {
		size *= 2
		shift--
	}
	t.slots = make([]tableSlot[V], size)
	t.shift = shift
	t.n = 0
}

// Len returns the number of keys held.
func (t *Table[V]) Len() int { return t.n }

func (t *Table[V]) home(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> t.shift
}

// Get returns the value stored under key.
func (t *Table[V]) Get(key uint64) (V, bool) {
	if t.n == 0 {
		var zero V
		return zero, false
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			var zero V
			return zero, false
		}
		if s.key == key {
			return s.val, true
		}
	}
}

// Put stores val under key, replacing any earlier value.
func (t *Table[V]) Put(key uint64, val V) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			// Field by field: a composite literal is built on the stack
			// and copied out with wide loads, which the CPU cannot
			// forward from the literal's narrow stores.
			s.key = key
			s.val = val
			s.used = true
			t.n++
			return
		}
		if s.key == key {
			s.val = val
			return
		}
	}
}

// Delete removes key if present, shifting the rest of its probe chain
// back into the hole.
func (t *Table[V]) Delete(key uint64) {
	if t.n == 0 {
		return
	}
	mask := uint64(len(t.slots) - 1)
	i := t.home(key)
	for {
		s := &t.slots[i]
		if !s.used {
			return
		}
		if s.key == key {
			break
		}
		i = (i + 1) & mask
	}
	for j := i; ; {
		j = (j + 1) & mask
		s := &t.slots[j]
		if !s.used {
			break
		}
		// s may fill the hole at i only if its home does not lie
		// cyclically inside (i, j]: moving it would break its own chain.
		if (j-t.home(s.key))&mask >= (j-i)&mask {
			t.slots[i] = *s
			i = j
		}
	}
	t.slots[i] = tableSlot[V]{}
	t.n--
}

// Reset empties the table, keeping its capacity.
func (t *Table[V]) Reset() {
	clear(t.slots)
	t.n = 0
}

func (t *Table[V]) grow() {
	if len(t.slots) == 0 {
		t.Init(0)
		return
	}
	old := t.slots
	t.slots = make([]tableSlot[V], 2*len(old))
	t.shift--
	t.n = 0
	for i := range old {
		if old[i].used {
			t.Put(old[i].key, old[i].val)
		}
	}
}
