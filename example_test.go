package wavelettrie_test

import (
	"fmt"

	wavelettrie "repro"
)

// The basic indexed-sequence operations on an immutable sequence.
func ExampleNewStatic() {
	wt := wavelettrie.NewStatic([]string{"get", "put", "get", "del", "get"})
	fmt.Println(wt.Access(3))
	fmt.Println(wt.Rank("get", 4))
	pos, _ := wt.Select("get", 2)
	fmt.Println(pos)
	// Output:
	// del
	// 2
	// 4
}

// Prefix queries work on byte prefixes of the stored strings.
func ExampleAppendOnly_prefixQueries() {
	wt := wavelettrie.NewAppendOnly()
	for _, u := range []string{"a.com/x", "b.org/y", "a.com/z", "a.com/x"} {
		wt.Append(u)
	}
	fmt.Println(wt.CountPrefix("a.com/"))
	pos, _ := wt.SelectPrefix("a.com/", 1)
	fmt.Println(pos, wt.Access(pos))
	// Output:
	// 3
	// 2 a.com/z
}

// The dynamic variant inserts and deletes at arbitrary positions, and the
// alphabet follows: deleting the last occurrence removes the string from
// the underlying trie.
func ExampleDynamic() {
	wt := wavelettrie.NewDynamic()
	wt.Append("b")
	wt.Insert("a", 0)
	wt.Insert("c", 2)
	fmt.Println(wt.Slice(0, 3), wt.AlphabetSize())
	wt.Delete(2)
	fmt.Println(wt.Slice(0, 2), wt.AlphabetSize())
	// Output:
	// [a b c] 3
	// [a b] 2
}

// Range analytics (§5 of the paper): distinct values, majority and top-k
// over any positional window.
func ExampleDynamic_rangeAnalytics() {
	wt := wavelettrie.NewDynamicFrom([]string{"x", "y", "x", "x", "z", "x"})
	for _, d := range wt.DistinctInRange(0, 6) {
		fmt.Println(d.Value, d.Count)
	}
	if m, ok := wt.RangeMajority(0, 6); ok {
		fmt.Println("majority:", m)
	}
	// Output:
	// x 4
	// y 1
	// z 1
	// majority: x
}

// DistinctPrefixes groups a window by a fixed-width byte prefix without
// materializing the strings — "distinct hostnames in a time range".
func ExampleFrozen_distinctPrefixes() {
	wt := wavelettrie.NewStatic([]string{
		"aa/1", "ab/2", "aa/3", "bb/4", "aa/5",
	})
	for _, g := range wt.DistinctPrefixes(0, 5, 2) {
		fmt.Println(g.Value, g.Count)
	}
	// Output:
	// aa 3
	// ab 1
	// bb 1
}

// A static trie is the paper's §3 succinct encoding, which can be
// serialized and reloaded without rebuilding.
func ExampleFrozen_marshalBinary() {
	wt := wavelettrie.NewStatic([]string{"red", "green", "red", "blue"})
	data, _ := wt.MarshalBinary()
	loaded, _ := wavelettrie.LoadFrozen(data)
	fmt.Println(loaded.Len(), loaded.Count("red"))
	pos, _ := loaded.Select("blue", 0)
	fmt.Println(pos)
	// Output:
	// 4 2
	// 3
}

// Numeric sequences use the §6 randomized wavelet tree: the universe is
// 2^64 but the height tracks only the values actually present.
func ExampleNumeric() {
	nq := wavelettrie.NewNumeric(64, 1)
	for _, v := range []uint64{10, 99, 10, 10} {
		nq.Append(v)
	}
	fmt.Println(nq.Access(1), nq.Rank(10, 4))
	pos, _ := nq.Select(10, 2)
	fmt.Println(pos)
	// Output:
	// 99 3
	// 3
}
