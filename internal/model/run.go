package model

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Op is a command's kind.
type Op uint8

// The commands. Crash reopens a copy of the still-open directory, so
// every append acknowledged before it must survive; Follow starts a
// follower of the primary and Promote makes it the primary.
const (
	OpBatch Op = iota
	OpAppend
	OpFlush
	OpCompact
	OpReopen
	OpCrash
	OpFollow
	OpPromote
)

var cmdNames = map[Op]string{OpBatch: "batch", OpAppend: "append", OpFlush: "flush", OpCompact: "compact",
	OpReopen: "reopen", OpCrash: "crash", OpFollow: "follow", OpPromote: "promote"}

// Cmd is one command: an append carries one value, a batch several, each
// with its row (nil rows read as NULL).
type Cmd struct {
	Op   Op
	Vals []string
	Rows []Row
}

func (c Cmd) String() string {
	if c.Op > OpAppend {
		return cmdNames[c.Op]
	}
	return fmt.Sprintf("%s(%d values, first %q)", cmdNames[c.Op], len(c.Vals), c.Vals[0])
}

// System is what the runner drives: a store, or a server with its
// followers, that Do applies a command to and Check holds to the model.
type System interface {
	// Do applies c, returning the sequence number an append was
	// acknowledged with (0 when the system reports none).
	Do(c Cmd) (ack uint64, err error)
	// Check compares every reader the system offers against m.
	Check(m *Model) error
	Close() error
}

// Gen draws command lists: the first a batch, each later one of Ops
// (batches and appends always among them), batches of up to Batch values
// (and rows, under Schema) of a skewed URL-like vocabulary.
type Gen struct {
	Ops    []Op
	Steps  int
	Batch  int
	Schema []Kind
}

// Cmds returns the command list of seed.
func (g Gen) Cmds(seed int64) []Cmd {
	r := rand.New(rand.NewSource(seed))
	ops := g.ops()
	out := []Cmd{g.cmd(r, OpBatch, g.Batch)}
	for len(out) < g.Steps {
		out = append(out, g.cmd(r, ops[r.Intn(len(ops))], 1+r.Intn(g.Batch)))
	}
	return out
}

// Decode turns fuzz input into a command list: each byte picks a command
// (its low bits) and a batch size (the rest), and the values come from a
// source seeded by the input's length.
func (g Gen) Decode(data []byte) []Cmd {
	r := rand.New(rand.NewSource(int64(len(data))))
	ops := g.ops()
	var out []Cmd
	for i, b := range data {
		if i == g.Steps {
			break
		}
		out = append(out, g.cmd(r, ops[int(b)%len(ops)], 1+int(b)*g.Batch/256))
	}
	return out
}

// ops is the pool commands are drawn from: a batch twice and an append
// beside Ops.
func (g Gen) ops() []Op { return append([]Op{OpBatch, OpBatch, OpAppend}, g.Ops...) }

func (g Gen) cmd(r *rand.Rand, op Op, size int) Cmd {
	c := Cmd{Op: op}
	if op == OpAppend {
		size = 1
	} else if op != OpBatch {
		return c
	}
	for i := 0; i < size; i++ {
		c.Vals = append(c.Vals, value(r))
		if len(g.Schema) > 0 {
			c.Rows = append(c.Rows, row(r, g.Schema))
		}
	}
	return c
}

// value draws a URL-like value: a few hot hosts and many cold ones, short
// keys, and now and then a long value.
func value(r *rand.Rand) string {
	switch k := r.Intn(16); {
	case k < 9:
		return fmt.Sprintf("host%d/p%d/%d", r.Intn(3), r.Intn(6), r.Intn(40))
	case k < 13:
		return fmt.Sprintf("cold%03d.example/%d", r.Intn(200), r.Intn(1000))
	case k < 15:
		return fmt.Sprintf("k%d", r.Intn(20))
	}
	return fmt.Sprintf("long/%d/%s", r.Intn(4), strings.Repeat("x", r.Intn(300)))
}

// row draws a row under schema: a fifth of them nil, a seventh of the
// cells NULL.
func row(r *rand.Rand, schema []Kind) Row {
	if r.Intn(5) == 0 {
		return nil
	}
	out := make(Row, len(schema))
	for i, k := range schema {
		switch {
		case r.Intn(7) == 0:
		case k == KindU64:
			out[i] = Cell{Kind: KindU64, Num: uint64(r.Intn(100))}
		default:
			out[i] = Cell{Kind: KindBytes, Blob: fmt.Sprintf("b%d", r.Intn(50))}
		}
	}
	return out
}

// Run applies cmds to a system from open and to a model under schema,
// holding the system to the model after every command. On a failure it
// shrinks the list — to the failing command's prefix, then dropping one
// command at a time while the rest still fails — and fails t printing it.
func Run(t testing.TB, schema []Kind, open func(t testing.TB) System, cmds []Cmd) {
	t.Helper()
	at, err := run(t, schema, open, cmds)
	if err == nil {
		return
	}
	short := cmds[:at+1]
	for i := 0; i < len(short)-1; i++ {
		try := append(append([]Cmd(nil), short[:i]...), short[i+1:]...)
		if at, e := run(t, schema, open, try); e != nil {
			short, err = try[:at+1], e
			i--
		}
	}
	var b strings.Builder
	for i, c := range short {
		fmt.Fprintf(&b, "\n\t%d: %v", i, c)
	}
	t.Fatalf("model: %v\nafter %d of the %d commands:%s", err, len(short), len(cmds), b.String())
}

// run applies cmds to a fresh system, returning the index of the first
// command after which the system differs from the model, and how.
func run(t testing.TB, schema []Kind, open func(t testing.TB) System, cmds []Cmd) (int, error) {
	sys, m := open(t), New(schema...)
	defer sys.Close()
	for i, c := range cmds {
		err := do(sys, m, c)
		if err == nil {
			err = sys.Check(m)
		}
		if err != nil {
			return i, err
		}
	}
	return 0, nil
}

// Apply applies cmds to sys and m without checking, failing t if sys
// refuses one.
func Apply(t testing.TB, sys System, m *Model, cmds ...Cmd) {
	t.Helper()
	for _, c := range cmds {
		if err := do(sys, m, c); err != nil {
			t.Fatal(err)
		}
	}
}

func do(sys System, m *Model, c Cmd) error {
	ack, err := sys.Do(c)
	if err != nil {
		return fmt.Errorf("%v: %w", c, err)
	}
	if c.Op == OpFlush {
		m.Mark()
	}
	if m.Append(c.Vals, c.Rows); ack != 0 {
		return m.Ack(ack)
	}
	return nil
}

// Flushed returns the commands appending vals (with rows, which may be
// nil) as batches cut at each of cuts, each cut flushed.
func Flushed(vals []string, rows []Row, cuts ...int) []Cmd {
	var out []Cmd
	batch := func(lo, hi int) {
		if c := (Cmd{Op: OpBatch, Vals: vals[lo:hi]}); hi > lo {
			if rows != nil {
				c.Rows = rows[lo:hi]
			}
			out = append(out, c)
		}
	}
	lo := 0
	for _, hi := range cuts {
		batch(lo, hi)
		out = append(out, Cmd{Op: OpFlush})
		lo = hi
	}
	batch(lo, len(vals))
	return out
}

// CopyDir copies the tree at src to dst: what a kill leaves of a live
// store directory, since nothing the process wrote is lost with it.
func CopyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, rel), data, 0o644)
		}
		return err
	})
}
