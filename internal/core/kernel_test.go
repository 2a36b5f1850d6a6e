package core_test

import (
	"testing"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/succinct"
)

// rangeOps is the §5 surface both representations serve from the one
// kernel.
type rangeOps interface {
	EnumerateBits(l, r int, fn func(pos int, s bitstr.BitString) bool)
	DistinctInRange(l, r int) []core.DistinctResult
	RangeMajority(l, r int) (bitstr.BitString, bool)
	RangeThreshold(l, r, t int) []core.DistinctResult
	VisitBranches(l, r int, visit func(prefix bitstr.BitString, count int, isLeaf bool) bool)
	TopKInRange(l, r, k int) []core.DistinctResult
}

// TestRangePanics pins the panic surface of the §5 operations, on a
// pointer trie and on the succinct trie a Frozen is: a window outside the
// sequence panics whatever else the call asks for — TopK's k ≤ 0 too.
func TestRangePanics(t *testing.T) {
	a := bitstr.EncodeString("a")
	d := core.NewDynamic()
	d.AppendBits(a)
	ao := core.NewAppendOnly()
	ao.AppendBits(a)
	st, err := succinct.FreezeAppendOnly(ao)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]rangeOps{"pointer": d, "succinct": st} {
		for op, f := range map[string]func(){
			"Enumerate(-1,0)":      func() { w.EnumerateBits(-1, 0, nil) },
			"Enumerate(0,2)":       func() { w.EnumerateBits(0, 2, nil) },
			"DistinctInRange(1,0)": func() { w.DistinctInRange(1, 0) },
			"RangeMajority(0,2)":   func() { w.RangeMajority(0, 2) },
			"RangeThreshold t=0":   func() { w.RangeThreshold(0, 1, 0) },
			"VisitBranches(0,5)":   func() { w.VisitBranches(0, 5, nil) },
			"TopK(5,2) k=0":        func() { w.TopKInRange(5, 2, 0) },
			"TopK(5,2) k=3":        func() { w.TopKInRange(5, 2, 3) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %s did not panic", name, op)
					}
				}()
				f()
			}()
		}
	}
}
