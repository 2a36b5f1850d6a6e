package dfuds

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/wire"
)

func TestTreeEncodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(220))
	for _, internals := range []int{0, 2, 250} {
		shape := binaryShape(internals, func(m int) int { return r.Intn(m + 1) })
		w := wire.NewWriter(1, 1)
		treeOf(shape).EncodeTo(w)
		rd, _ := wire.NewReader(w.Bytes(), 1, 1)
		got := DecodeTree(rd)
		if err := rd.Done(); err != nil {
			t.Fatalf("%d internal nodes: %v", internals, err)
		}
		checkNavigation(t, "decoded", got, shape)
	}
}

func TestDecodeTreeRejectsShapeMismatch(t *testing.T) {
	// A bitmap too short to hold the leading open and a node.
	w := wire.NewWriter(1, 1)
	bitvec.FromWords([]uint64{1}, 1).EncodeTo(w)
	rd, _ := wire.NewReader(w.Bytes(), 1, 1)
	DecodeTree(rd)
	if rd.Err() == nil {
		t.Fatal("a one-bit bitmap accepted")
	}
	// Truncation.
	w = wire.NewWriter(1, 1)
	treeOf([]byte{1, 0, 0}).EncodeTo(w)
	rd, _ = wire.NewReader(w.Bytes()[:len(w.Bytes())-3], 1, 1)
	DecodeTree(rd)
	if rd.Err() == nil {
		t.Fatal("truncated input accepted")
	}
}

func TestTreePanics(t *testing.T) {
	tr := treeOf([]byte{1, 0, 0})
	for _, f := range []func(){
		func() { NewTree(bitvec.FromWords([]uint64{1}, 1)) },
		func() { tr.BinaryChild(tr.BinaryChild(tr.BinaryRoot(), 0), 1) },             // a leaf has no child
		func() { tr := treeOf([]byte{1, 1, 0}); tr.BinaryChild(tr.BinaryRoot(), 1) }, // never closed
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
