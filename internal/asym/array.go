package asym

import (
	"math/bits"
	"slices"
	"sync/atomic"
)

// Array is an asymmetric-memory array of int32 words. Every Get charges one
// read and every Set charges one write to the attached Meter. Algorithms in
// this repository store all Θ(n)- and Θ(m)-sized state (component labels,
// parent pointers, BC labels, contracted edge lists, ...) in Arrays so that
// the write counts the paper analyzes are measured, not estimated.
//
// Array deliberately exposes unmetered access (Raw) for test assertions and
// for result consumers that are outside the modeled computation.
type Array struct {
	m    *Meter
	data []int32
}

// NewArray allocates an n-word asymmetric array. Allocation itself is free
// (the model charges for accesses, not for address space); initializing
// contents must be done through Set/Fill so it is charged.
func NewArray(m *Meter, n int) *Array {
	return &Array{m: m, data: make([]int32, n)}
}

// Len returns the array length.
func (a *Array) Len() int { return len(a.data) }

// Get reads element i, charging one asymmetric read.
func (a *Array) Get(i int) int32 {
	a.m.Read(1)
	return a.data[i]
}

// Set writes element i, charging one asymmetric write.
func (a *Array) Set(i int, v int32) {
	a.m.Write(1)
	a.data[i] = v
}

// Fill sets every element to v, charging Len writes.
func (a *Array) Fill(v int32) {
	a.m.Write(len(a.data))
	for i := range a.data {
		a.data[i] = v
	}
}

// Raw returns the backing slice without charging. For verification only.
func (a *Array) Raw() []int32 { return a.data }

// Meter returns the meter this array charges.
func (a *Array) Meter() *Meter { return a.m }

// Array64 is an asymmetric-memory array of int64 words, used where values may
// exceed int32 range (Euler-tour ranks on large graphs, prefix sums of costs).
type Array64 struct {
	m    *Meter
	data []int64
}

// NewArray64 allocates an n-word asymmetric array of int64.
func NewArray64(m *Meter, n int) *Array64 {
	return &Array64{m: m, data: make([]int64, n)}
}

// Len returns the array length.
func (a *Array64) Len() int { return len(a.data) }

// Get reads element i, charging one asymmetric read.
func (a *Array64) Get(i int) int64 {
	a.m.Read(1)
	return a.data[i]
}

// Set writes element i, charging one asymmetric write.
func (a *Array64) Set(i int, v int64) {
	a.m.Write(1)
	a.data[i] = v
}

// Fill sets every element to v, charging Len writes.
func (a *Array64) Fill(v int64) {
	a.m.Write(len(a.data))
	for i := range a.data {
		a.data[i] = v
	}
}

// Raw returns the backing slice without charging. For verification only.
func (a *Array64) Raw() []int64 { return a.data }

// BitArray is an asymmetric-memory bit vector. The implicit decomposition
// stores exactly one bit per center (primary vs secondary, §3), so bit-level
// granularity matters for the space accounting even though the cost model
// charges per word access.
//
// Bits are set with an atomic OR (cleared with an atomic AND) and read with
// atomic loads, so processors may set distinct bits of one 64-bit word
// concurrently: the parallel decomposition build marks the centers of
// disjoint clusters that share words. On amd64 an atomic load is a plain
// load, so readers pay nothing for it.
type BitArray struct {
	m     *Meter
	words []uint64
	n     int
}

// NewBitArray allocates an n-bit asymmetric bit vector.
func NewBitArray(m *Meter, n int) *BitArray {
	return &BitArray{m: m, words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits.
func (b *BitArray) Len() int { return b.n }

// Get reads bit i, charging one asymmetric read.
func (b *BitArray) Get(i int) bool {
	b.m.Read(1)
	return b.RawGet(i)
}

// Set writes bit i, charging one asymmetric write. Safe for concurrent use
// with Set and Get on any bit.
func (b *BitArray) Set(i int, v bool) {
	b.m.Write(1)
	bit := uint64(1) << uint(i%64)
	if v {
		atomic.OrUint64(&b.words[i/64], bit)
	} else {
		atomic.AndUint64(&b.words[i/64], ^bit)
	}
}

// RawGet reads bit i without charging. For verification only.
func (b *BitArray) RawGet(i int) bool {
	return atomic.LoadUint64(&b.words[i/64])&(1<<uint(i%64)) != 0
}

// Clone returns a copy of b whose accesses charge m, charging m one read
// and one write per word copied (⌈Len/64⌉ of each). b must not change
// while it is copied.
func (b *BitArray) Clone(m *Meter) *BitArray {
	m.Read(len(b.words))
	m.Write(len(b.words))
	return &BitArray{m: m, words: slices.Clone(b.words), n: b.n}
}

// Diff returns the number of positions at which b and o (of equal length)
// differ, charging m one read per word of each. Neither may change while
// it compares.
func (b *BitArray) Diff(m *Meter, o *BitArray) int {
	m.Read(2 * len(b.words))
	diff := 0
	for w, word := range b.words {
		diff += bits.OnesCount64(word ^ o.words[w])
	}
	return diff
}

// Rank is a constant-time rank directory over a BitArray, the one-level
// form of Jacobson's rank structure ("Space-efficient static trees and
// graphs", FOCS 1989; Vigna's rank9, WEA 2008): one int32 per 64-bit word
// holding the number of set bits in all earlier words. It turns "position
// of bit i among the set bits" into one word read, one directory read and a
// popcount. The bit array must not change once the directory is built, so
// the directory reads its words with plain loads.
type Rank struct {
	b   *BitArray
	dir []int32 // dir[w] = set bits in words[0:w]
}

// NewRank builds the rank directory over b, charging b's meter one read per
// word scanned and one write per directory entry: ⌈Len/64⌉ of each.
func NewRank(b *BitArray) *Rank {
	dir := make([]int32, len(b.words))
	b.m.Read(len(b.words))
	b.m.Write(len(dir))
	var c int32
	for w, word := range b.words {
		dir[w] = c
		c += int32(bits.OnesCount64(word))
	}
	return &Rank{b: b, dir: dir}
}

// Index returns the number of set bits before position i when bit i is set,
// and -1 when it is not. It charges m one read for the bit's word, plus one
// directory read when the bit is set.
func (r *Rank) Index(m *Meter, i int) int {
	m.Read(1)
	word := r.b.words[i/64]
	bit := uint64(1) << uint(i%64)
	if word&bit == 0 {
		return -1
	}
	m.Read(1)
	return int(r.dir[i/64]) + bits.OnesCount64(word&(bit-1))
}
