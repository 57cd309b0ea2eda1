package decomp

// vertexTable is the searches' symmetric-memory int32→int32 map: an
// open-addressing table with power-of-two capacity, Fibonacci hashing and
// linear probing. Every slot carries the generation that wrote it, and only
// slots of the current generation are live, so reset is O(1) however large
// the table once grew — a ρ search adds a handful of entries, and clearing a
// table sized for the largest search so far would cost more than the search.
// When the uint32 generation wraps, reset clears every slot and restarts at
// generation 1.
//
// The zero value is an empty table. Entries are never deleted and the table
// is never iterated, so probe order cannot leak into any output.
type vertexTable struct {
	slots []vertexSlot
	gen   uint32 // live generation; 0 only until the first put or reset
	shift uint8  // 32 − log2(len(slots)), the Fibonacci hash shift
	n     int    // live entries
}

type vertexSlot struct {
	gen      uint32
	key, val int32
}

// minVertexTableCap is the capacity of a table's first allocation.
const minVertexTableCap = 64

// slot returns the home slot of key: the top log2(len(slots)) bits of
// key·⌊2³²/φ⌋.
func (t *vertexTable) slot(key int32) int {
	return int(uint32(key) * 0x9E3779B9 >> t.shift)
}

// get returns the value stored under key in the current generation.
//
//wec:noalloc
func (t *vertexTable) get(key int32) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	for i := t.slot(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			return 0, false
		}
		if s.key == key {
			return s.val, true
		}
	}
}

// put stores val under key, replacing any value key already holds.
//
//wec:noalloc
func (t *vertexTable) put(key, val int32) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow() //wec:alloc amortized scratch growth; steady state stays within capacity
	}
	mask := len(t.slots) - 1
	for i := t.slot(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			*s = vertexSlot{gen: t.gen, key: key, val: val}
			t.n++
			return
		}
		if s.key == key {
			s.val = val
			return
		}
	}
}

// reset empties the table in O(1), keeping its capacity.
//
//wec:noalloc
func (t *vertexTable) reset() {
	t.n = 0
	t.gen++
	if t.gen == 0 {
		clear(t.slots)
		t.gen = 1
	}
}

// grow doubles the capacity (or makes the first allocation) and re-inserts
// the live entries under the current generation.
func (t *vertexTable) grow() {
	old := t.slots
	size := max(minVertexTableCap, 2*len(old))
	t.slots = make([]vertexSlot, size)
	t.shift = uint8(32 - log2ceil(size))
	if t.gen == 0 {
		t.gen = 1
	}
	t.n = 0
	for _, s := range old {
		if s.gen == t.gen {
			t.put(s.key, s.val)
		}
	}
}
