package splitmix

import "testing"

// TestReferenceOutputs pins the stream to the reference splitmix64 outputs
// for seed 0 (the values of the published reference implementation).
func TestReferenceOutputs(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	r := New(0)
	for i, w := range want {
		if got := r.Next(); got != w {
			t.Fatalf("draw %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestFloat64AndIntnRanges(t *testing.T) {
	r := New(42)
	for i := 0; i < 10000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v, outside [0, 1)", f)
		}
		if n := r.Intn(7); n < 0 || n >= 7 {
			t.Fatalf("Intn(7) = %d", n)
		}
	}
}

func TestAllocationFree(t *testing.T) {
	r := New(1)
	var sink uint64
	if a := testing.AllocsPerRun(100, func() { sink += r.Next() + Mix64(sink) + uint64(r.Intn(3)) }); a != 0 {
		t.Fatalf("%v allocs per draw", a)
	}
	_ = sink
}
