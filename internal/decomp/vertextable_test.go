package decomp

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestVertexTableMatchesMap runs seeded random put/get/reset sequences
// against a Go map. Key ranges widen from round to round, so the table
// grows through several doublings, and resets (random ones and one every
// third round) leave stale slots of earlier generations behind for later
// probes to step over.
func TestVertexTableMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		var tab vertexTable
		ref := map[int32]int32{}
		for round, keys := 0, int32(8); round < 12; round, keys = round+1, keys*2 {
			for op := 0; op < 4000; op++ {
				k := rng.Int32N(2*keys) - keys/4 // a few negative keys too
				switch r := rng.IntN(4000); {
				case r < 1800:
					v := rng.Int32()
					tab.put(k, v)
					ref[k] = v
				case r < 3999:
					got, ok := tab.get(k)
					want, wantOK := ref[k]
					if ok != wantOK || got != want {
						t.Fatalf("seed %d round %d: get(%d) = %d,%v, want %d,%v", seed, round, k, got, ok, want, wantOK)
					}
				default:
					tab.reset()
					clear(ref)
				}
			}
			if tab.n != len(ref) {
				t.Fatalf("seed %d round %d: %d live entries, want %d", seed, round, tab.n, len(ref))
			}
			for k, want := range ref {
				if got, ok := tab.get(k); !ok || got != want {
					t.Fatalf("seed %d round %d: get(%d) = %d,%v, want %d", seed, round, k, got, ok, want)
				}
			}
			if round%3 == 2 {
				tab.reset()
				clear(ref)
			}
		}
		if len(tab.slots) < 1024 {
			t.Fatalf("seed %d: table only reached %d slots; the test should cross several grow steps", seed, len(tab.slots))
		}
	}
}

// TestVertexTableGenerationWrap forces the uint32 generation to wrap. The
// slots written in generation 1, long dead, would read back as live once
// the generation restarts at 1 unless reset clears them, so nothing
// written before the wrap may be found after it.
func TestVertexTableGenerationWrap(t *testing.T) {
	var tab vertexTable
	for k := int32(0); k < 500; k++ {
		tab.put(k, k+1) // generation 1
	}
	if tab.gen != 1 {
		t.Fatalf("first generation is %d, want 1", tab.gen)
	}
	tab.reset()
	tab.gen = math.MaxUint32
	for k := int32(1000); k < 1700; k++ { // grows the table in the last generation
		tab.put(k, -k)
	}
	for k := int32(0); k < 500; k++ {
		if v, ok := tab.get(k); ok {
			t.Fatalf("before the wrap: stale get(%d) = %d", k, v)
		}
	}
	tab.reset()
	if tab.gen != 1 {
		t.Fatalf("generation after the wrap is %d, want 1", tab.gen)
	}
	for k := int32(0); k < 2000; k += 3 {
		tab.put(k, 7*k)
	}
	for k := int32(0); k < 2000; k++ {
		v, ok := tab.get(k)
		if wantOK := k%3 == 0; ok != wantOK || (ok && v != 7*k) {
			t.Fatalf("after the wrap: get(%d) = %d,%v, want present=%v", k, v, ok, wantOK)
		}
	}
}
