package dfuds

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
)

// naiveMatch computes matching parens by stack scan.
func naiveMatch(bits []byte) (closeOf, openOf map[int]int) {
	closeOf = map[int]int{}
	openOf = map[int]int{}
	var stack []int
	for i, b := range bits {
		if b == 1 {
			stack = append(stack, i)
		} else {
			j := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			closeOf[j] = i
			openOf[i] = j
		}
	}
	return
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
		closeOf, openOf := naiveMatch(bits)
		for i, j := range closeOf {
			if got := p.FindClose(i); got != j {
				t.Fatalf("pairs=%d: FindClose(%d)=%d want %d", pairs, i, got, j)
			}
		}
		for i, j := range openOf {
			if got := p.FindOpen(i); got != j {
				t.Fatalf("pairs=%d: FindOpen(%d)=%d want %d", pairs, i, got, j)
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
		if got := p.FindOpen(2*n - 1 - i); got != i {
			t.Fatalf("FindOpen(%d)", 2*n-1-i)
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
		if p.FindClose(2*i) != 2*i+1 || p.FindOpen(2*i+1) != 2*i {
			t.Fatalf("flat match at %d", i)
		}
	}
}

func TestExcess(t *testing.T) {
	bits := []byte{1, 1, 0, 1, 0, 0}
	p := buildParens(bits)
	want := []int{0, 1, 2, 1, 2, 1, 0}
	for i, w := range want {
		if got := p.Excess(i); got != w {
			t.Fatalf("Excess(%d)=%d want %d", i, got, w)
		}
	}
}

func TestPanicsOnWrongParen(t *testing.T) {
	p := buildParens([]byte{1, 0})
	for _, f := range []func(){
		func() { p.FindClose(1) },
		func() { p.FindOpen(0) },
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

// refTree is a pointer tree used to verify DFUDS navigation.
type refTree struct {
	kids [][]int // children of node i (preorder ids)
}

// randomTree generates a random tree with k nodes in preorder.
func randomTree(r *rand.Rand, k int, maxDeg int) *refTree {
	rt := &refTree{kids: make([][]int, k)}
	// Assign children by a preorder construction: node i's children are
	// the next nodes in sequence, recursively.
	next := 1
	var build func(v int)
	build = func(v int) {
		if next >= k {
			return
		}
		deg := r.Intn(maxDeg + 1)
		for c := 0; c < deg && next < k; c++ {
			child := next
			next++
			rt.kids[v] = append(rt.kids[v], child)
			build(child)
		}
	}
	build(0)
	// Attach any unplaced nodes under the root to keep k nodes total.
	for next < k {
		rt.kids[0] = append(rt.kids[0], next)
		next++
	}
	return rt
}

func (rt *refTree) degrees() []int {
	out := make([]int, len(rt.kids))
	for i, k := range rt.kids {
		out[i] = len(k)
	}
	return out
}

func TestTreeNavigationAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(151))
	for _, k := range []int{1, 2, 3, 10, 100, 2000} {
		for _, maxDeg := range []int{1, 2, 3, 8} {
			rt := randomTree(r, k, maxDeg)
			tr := FromDegrees(rt.degrees())
			if tr.NumNodes() != k {
				t.Fatalf("NumNodes=%d want %d", tr.NumNodes(), k)
			}
			// Round trip preorder <-> position, degrees, children, parents.
			parentOf := make([]int, k)
			parentOf[0] = -1
			for v, kids := range rt.kids {
				for _, c := range kids {
					parentOf[c] = v
				}
			}
			for i := 0; i < k; i++ {
				v := tr.NodePos(i)
				if tr.Preorder(v) != i {
					t.Fatalf("Preorder(NodePos(%d)) = %d", i, tr.Preorder(v))
				}
				if got, want := tr.Degree(v), len(rt.kids[i]); got != want {
					t.Fatalf("Degree(node %d) = %d want %d", i, got, want)
				}
				if tr.IsLeaf(v) != (len(rt.kids[i]) == 0) {
					t.Fatalf("IsLeaf(node %d)", i)
				}
				for ci, c := range rt.kids[i] {
					cp := tr.Child(v, ci)
					if tr.Preorder(cp) != c {
						t.Fatalf("Child(node %d, %d) = node %d want %d", i, ci, tr.Preorder(cp), c)
					}
					if tr.Parent(cp) != v {
						t.Fatalf("Parent(node %d) wrong", c)
					}
					if tr.ChildIndex(cp) != ci {
						t.Fatalf("ChildIndex(node %d) = %d want %d", c, tr.ChildIndex(cp), ci)
					}
				}
			}
		}
	}
}

func TestBinaryTrieShape(t *testing.T) {
	// The shape the Wavelet Trie uses: every internal node has exactly 2
	// children. k = 2m-1 nodes for m leaves → 2k+1 paren bits.
	degs := []int{2, 2, 0, 0, 2, 0, 0} // root(A,B): A(l,l), B(l,l) in preorder
	tr := FromDegrees(degs)
	root := tr.Root()
	a := tr.Child(root, 0)
	b := tr.Child(root, 1)
	if tr.Preorder(a) != 1 || tr.Preorder(b) != 4 {
		t.Fatalf("children preorders %d %d", tr.Preorder(a), tr.Preorder(b))
	}
	if !tr.IsLeaf(tr.Child(a, 0)) || !tr.IsLeaf(tr.Child(b, 1)) {
		t.Fatal("leaves expected")
	}
	// 2k parens total: k closes, k-1 unary-degree opens, 1 leading open.
	if tr.p.Len() != 2*len(degs) {
		t.Fatalf("paren length %d want %d", tr.p.Len(), 2*len(degs))
	}
}

// binaryDegrees returns the preorder degree sequence of a strictly
// binary tree with the given number of internal nodes, whose shape is
// chosen by pick: at an internal node with m internal nodes left to
// place below it, pick(m) of them go into the 0-subtree.
func binaryDegrees(internals int, pick func(m int) int) []int {
	var degs []int
	// Explicit stack: chains are thousands of nodes deep.
	stack := []int{internals}
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if m == 0 {
			degs = append(degs, 0)
			continue
		}
		degs = append(degs, 2)
		left := pick(m - 1)
		stack = append(stack, m-1-left, left) // 0-subtree pops first
	}
	return degs
}

// TestBinaryShortcutsAgainstGeneralNavigation walks strictly binary
// trees with the general Degree/Child/Preorder navigation and checks the
// position-arithmetic shortcuts land on the same node, preorder id and
// internal index everywhere — on left- and right-deep chains whose
// parentheses run well past one 4 096-bit superblock of the excess
// index, and on random shapes.
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
		const internals = 3000 // 6001 nodes, 12 002 parens: three superblocks
		tr := FromDegrees(binaryDegrees(internals, pick))
		if tr.p.Len() < 2*superBits {
			t.Fatalf("%s: only %d parens, want more than two superblocks", name, tr.p.Len())
		}
		seenInternal := 0
		stack := []BinaryNode{tr.BinaryRoot()}
		visited := 0
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			visited++
			if got := tr.Preorder(n.Pos); got != n.ID {
				t.Fatalf("%s: node at %d has preorder %d, shortcut says %d", name, n.Pos, got, n.ID)
			}
			if tr.NodePos(n.ID) != n.Pos {
				t.Fatalf("%s: NodePos(%d) = %d, shortcut position %d", name, n.ID, tr.NodePos(n.ID), n.Pos)
			}
			if tr.IsLeaf(n.Pos) {
				if tr.Degree(n.Pos) != 0 {
					t.Fatalf("%s: leaf with degree %d", name, tr.Degree(n.Pos))
				}
				continue
			}
			// Preorder visits internal nodes in internal-index order.
			if got := n.InternalIndex(); got != seenInternal {
				t.Fatalf("%s: node %d internal index %d, want %d", name, n.ID, got, seenInternal)
			}
			seenInternal++
			for bit := byte(0); bit < 2; bit++ {
				c := tr.BinaryChild(n, bit)
				if want := tr.Child(n.Pos, int(bit)); c.Pos != want {
					t.Fatalf("%s: BinaryChild(node %d, %d) at %d, Child says %d", name, n.ID, bit, c.Pos, want)
				}
			}
			// 1-child first so the 0-child pops first: preorder.
			stack = append(stack, tr.BinaryChild(n, 1), tr.BinaryChild(n, 0))
		}
		if visited != tr.NumNodes() || seenInternal != internals {
			t.Fatalf("%s: visited %d nodes (%d internal), want %d (%d)", name, visited, seenInternal, tr.NumNodes(), internals)
		}
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
