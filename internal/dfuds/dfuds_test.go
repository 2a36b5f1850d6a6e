package dfuds

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
)

// naiveMatch maps each open paren to its close by stack scan.
func naiveMatch(bits []byte) map[int]int {
	closeOf := map[int]int{}
	var stack []int
	for i, b := range bits {
		if b == 1 {
			stack = append(stack, i)
		} else {
			j := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			closeOf[j] = i
		}
	}
	return closeOf
}

// randBalanced produces a random balanced sequence of n pairs.
func randBalanced(r *rand.Rand, pairs int) []byte {
	var out []byte
	open, close := 0, 0
	for close < pairs {
		if open < pairs && (open == close || r.Intn(2) == 0) {
			out = append(out, 1)
			open++
		} else {
			out = append(out, 0)
			close++
		}
	}
	return out
}

func buildParens(bits []byte) *Parens {
	b := bitvec.NewBuilder(len(bits))
	for _, x := range bits {
		b.AppendBit(x)
	}
	return NewParens(b.Build())
}

func TestFindCloseOpenAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(150))
	for _, pairs := range []int{1, 5, 60, 63, 64, 65, 1000, 5000} {
		bits := randBalanced(r, pairs)
		p := buildParens(bits)
		for i, j := range naiveMatch(bits) {
			if got := p.FindClose(i); got != j {
				t.Fatalf("pairs=%d: FindClose(%d)=%d want %d", pairs, i, got, j)
			}
		}
	}
}

func TestDeepNesting(t *testing.T) {
	// ((((…)))) — worst case for block skipping.
	n := 10000
	bits := make([]byte, 2*n)
	for i := 0; i < n; i++ {
		bits[i] = 1
	}
	p := buildParens(bits)
	for i := 0; i < n; i += 97 {
		if got := p.FindClose(i); got != 2*n-1-i {
			t.Fatalf("FindClose(%d)=%d want %d", i, got, 2*n-1-i)
		}
	}
}

func TestFlatSequence(t *testing.T) {
	// ()()()… — matches are adjacent.
	n := 5000
	bits := make([]byte, 2*n)
	for i := 0; i < n; i++ {
		bits[2*i] = 1
	}
	p := buildParens(bits)
	for i := 0; i < n; i += 61 {
		if p.FindClose(2*i) != 2*i+1 {
			t.Fatalf("flat match at %d", i)
		}
	}
}

func TestPanicsOnWrongParen(t *testing.T) {
	p := buildParens([]byte{1, 0})
	for _, f := range []func(){
		func() { p.FindClose(1) },
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

// binaryShape returns the preorder internal(1)/leaf(0) sequence of a
// strictly binary tree with the given number of internal nodes, whose
// shape is chosen by pick: at an internal node with m internal nodes left
// to place below it, pick(m) of them go into the 0-subtree.
func binaryShape(internals int, pick func(m int) int) []byte {
	var shape []byte
	// Explicit stack: chains are thousands of nodes deep.
	stack := []int{internals}
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if m == 0 {
			shape = append(shape, 0)
			continue
		}
		shape = append(shape, 1)
		left := pick(m - 1)
		stack = append(stack, m-1-left, left) // 0-subtree pops first
	}
	return shape
}

// treeOf builds the Tree of a preorder shape.
func treeOf(shape []byte) *Tree {
	b := bitvec.NewBuilder(len(shape) + 1)
	b.AppendBit(1)
	for _, x := range shape {
		b.AppendBit(x)
	}
	return NewTree(b.Build())
}

// checkNavigation walks tr from the root with BinaryChild and checks every
// node against the shape read naively: the children of the internal node
// with preorder number i are node i+1 and the node right after i's
// 0-subtree, found by counting leaves against internal nodes; a node's
// Internal is the number of 1s before it.
func checkNavigation(t *testing.T, name string, tr *Tree, shape []byte) {
	t.Helper()
	k := len(shape)
	if tr.NumNodes() != k || !tr.WellFormed() {
		t.Fatalf("%s: NumNodes = %d (want %d), WellFormed = %v", name, tr.NumNodes(), k, tr.WellFormed())
	}
	// end[i] = preorder number one past node i's subtree, right to left.
	end := make([]int, k)
	for i := k - 1; i >= 0; i-- {
		end[i] = i + 1
		if shape[i] == 1 {
			end[i] = end[end[i+1]]
		}
	}
	internalsBefore := make([]int, k+1)
	for i, x := range shape {
		internalsBefore[i+1] = internalsBefore[i] + int(x)
	}
	stack := []BinaryNode{tr.BinaryRoot()}
	visited := 0
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.ID() != visited || n.Pos != visited+1 {
			t.Fatalf("%s: visit %d reached node %d at %d", name, visited, n.ID(), n.Pos)
		}
		visited++
		if n.Internal != internalsBefore[n.ID()] {
			t.Fatalf("%s: node %d internal index %d, want %d", name, n.ID(), n.Internal, internalsBefore[n.ID()])
		}
		if tr.IsLeaf(n.Pos) != (shape[n.ID()] == 0) {
			t.Fatalf("%s: IsLeaf(node %d) = %v", name, n.ID(), tr.IsLeaf(n.Pos))
		}
		if tr.IsLeaf(n.Pos) {
			continue
		}
		c0, c1 := tr.BinaryChild(n, 0), tr.BinaryChild(n, 1)
		if c0.ID() != n.ID()+1 || c1.ID() != end[n.ID()+1] {
			t.Fatalf("%s: children of node %d are nodes %d and %d, want %d and %d", name, n.ID(), c0.ID(), c1.ID(), n.ID()+1, end[n.ID()+1])
		}
		stack = append(stack, c1, c0) // the 0-child pops first: preorder
	}
	if visited != k {
		t.Fatalf("%s: visited %d nodes, want %d", name, visited, k)
	}
}

func TestTreeNavigationAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(151))
	for _, internals := range []int{0, 1, 2, 5, 31, 32, 33, 100, 2000} {
		for trial := 0; trial < 4; trial++ {
			shape := binaryShape(internals, func(m int) int { return r.Intn(m + 1) })
			checkNavigation(t, fmt.Sprintf("%d internal nodes", internals), treeOf(shape), shape)
		}
	}
}

func TestBinaryTrieShape(t *testing.T) {
	// The shape the Wavelet Trie uses: every internal node has exactly 2
	// children. k = 2m-1 nodes for m leaves → k+1 bitmap bits.
	shape := []byte{1, 1, 0, 0, 1, 0, 0} // root(A,B): A(l,l), B(l,l) in preorder
	tr := treeOf(shape)
	root := tr.BinaryRoot()
	a := tr.BinaryChild(root, 0)
	b := tr.BinaryChild(root, 1)
	if a.ID() != 1 || b.ID() != 4 || a.Internal != 1 || b.Internal != 2 {
		t.Fatalf("children %+v %+v", a, b)
	}
	if !tr.IsLeaf(tr.BinaryChild(a, 0).Pos) || !tr.IsLeaf(tr.BinaryChild(b, 1).Pos) {
		t.Fatal("leaves expected")
	}
	if tr.p.Len() != len(shape)+1 {
		t.Fatalf("bitmap length %d want %d", tr.p.Len(), len(shape)+1)
	}
}

// TestBinaryShortcutsAgainstGeneralNavigation walks strictly binary trees
// by position arithmetic and checks every node, child and internal index
// against the shape read naively — on left- and right-deep chains whose
// bitmaps run well past one 4 096-bit superblock of the excess index, and
// on random shapes.
func TestBinaryShortcutsAgainstGeneralNavigation(t *testing.T) {
	r := rand.New(rand.NewSource(153))
	shapes := map[string]func(m int) int{
		"left-deep":  func(m int) int { return m },
		"right-deep": func(m int) int { return 0 },
		"balanced":   func(m int) int { return m / 2 },
		"random":     func(m int) int { return r.Intn(m + 1) },
		"skewed":     func(m int) int { return min(m, r.Intn(4)) },
	}
	for name, pick := range shapes {
		const internals = 6000 // 12 001 nodes, 12 002 bits: three superblocks
		shape := binaryShape(internals, pick)
		tr := treeOf(shape)
		if tr.p.Len() < 2*blockBits*blocksPerSuper {
			t.Fatalf("%s: only %d bits, want more than two superblocks", name, tr.p.Len())
		}
		checkNavigation(t, name, tr, shape)
	}
}

// TestWellFormed: exactly the preorder bitmaps of one strictly binary
// tree behind a leading 1 pass.
func TestWellFormed(t *testing.T) {
	for _, tc := range []struct {
		bits []byte
		want bool
	}{
		{[]byte{1, 0}, true},
		{[]byte{1, 1, 0, 0}, true},
		{[]byte{0, 0}, false},                   // no leading open
		{[]byte{1, 1}, false},                   // never closed
		{[]byte{1, 1, 0}, false},                // a child missing
		{[]byte{1, 0, 0}, false},                // a forest: closed before the end
		{[]byte{1, 0, 1, 0, 0}, false},          // the same, with a tree behind
		{[]byte{1, 1, 1, 0, 0, 0, 0, 0}, false}, // a leaf too many
	} {
		b := bitvec.NewBuilder(len(tc.bits))
		for _, x := range tc.bits {
			b.AppendBit(x)
		}
		if got := NewTree(b.Build()).WellFormed(); got != tc.want {
			t.Errorf("WellFormed(%v) = %v, want %v", tc.bits, got, tc.want)
		}
	}
	// A long chain cut one leaf short, and one with a stray leaf at the
	// front of the last word.
	shape := binaryShape(5000, func(m int) int { return m })
	if treeOf(shape[:len(shape)-1]).WellFormed() {
		t.Error("a chain missing its last leaf is well-formed")
	}
	if treeOf(append(shape, 0)).WellFormed() {
		t.Error("a chain with a leaf too many is well-formed")
	}
}

func BenchmarkFindClose(b *testing.B) {
	r := rand.New(rand.NewSource(152))
	bits := randBalanced(r, 1<<19)
	p := buildParens(bits)
	var opens []int
	for i, x := range bits {
		if x == 1 {
			opens = append(opens, i)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.FindClose(opens[i%len(opens)])
	}
}
