package statehash

import "testing"

// words is a fixed stream: small values, a zero, all-ones and a value
// with the top bit set, so both lanes see carries and wraparound.
var words = []uint64{0, 1, 2, 3, 0xdeadbeef, ^uint64(0), 1 << 63, 42}

func sumOf(ws []uint64) Sum {
	h := New()
	for _, w := range ws {
		h.Add(w)
	}
	return h.Sum()
}

// TestGoldenSum pins the fingerprint of a fixed word stream; the golden
// values were computed independently from the lane definitions. The
// steady-state detector compares sums taken in one run, so a change of
// the mix does not break results by itself, but it must be deliberate:
// update the golden values only together with a reason.
func TestGoldenSum(t *testing.T) {
	if got, want := sumOf(words), (Sum{A: 0x9f899244f5cd1ee5, B: 0x855bd327cda3d672}); got != want {
		t.Fatalf("Sum = %#x, want %#x", got, want)
	}
	if got, want := sumOf(nil), (Sum{A: offsetA, B: offsetB}); got != want {
		t.Fatalf("empty Sum = %#x, want the offsets %#x", got, want)
	}
	h := New()
	for _, w := range words {
		h.Add(w)
	}
	if a, b := h.Sum128(); (Sum{a, b}) != h.Sum() {
		t.Fatal("Sum128 and Sum disagree")
	}
}

// TestOrderSensitive: swapping two words changes the sum, in each lane.
func TestOrderSensitive(t *testing.T) {
	swapped := append([]uint64(nil), words...)
	swapped[2], swapped[3] = swapped[3], swapped[2]
	a, b := sumOf(words), sumOf(swapped)
	if a.A == b.A || a.B == b.B {
		t.Fatalf("swapping two words left a lane unchanged: %#x vs %#x", a, b)
	}
}

// TestAddBool: AddBool(b) is Add(1) for true and Add(0) for false.
func TestAddBool(t *testing.T) {
	for _, v := range []bool{false, true} {
		x, y := New(), New()
		x.Add(7)
		y.Add(7)
		x.AddBool(v)
		w := uint64(0)
		if v {
			w = 1
		}
		y.Add(w)
		if x.Sum() != y.Sum() {
			t.Errorf("AddBool(%v) = %#x, Add(%d) = %#x", v, x.Sum(), w, y.Sum())
		}
	}
}

// TestNewIsNotZero: New starts from the offsets, not the zero value, so
// a zero Hash (a missing New) gives different sums for the same words.
func TestNewIsNotZero(t *testing.T) {
	var zero Hash
	fresh := New()
	if fresh.Sum() == zero.Sum() {
		t.Fatal("New() equals the zero value")
	}
	zero.Add(5)
	fresh.Add(5)
	if zero.Sum() == fresh.Sum() {
		t.Fatal("a zero Hash and New() sum the same words equally")
	}
}
