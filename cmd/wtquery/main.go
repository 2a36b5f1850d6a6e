// Command wtquery loads a line-oriented log (one string per line) into a
// Wavelet Trie and answers queries interactively — a REPL over the full
// indexed-sequence operation set of the paper, programmed against the
// wavelettrie.Index interface family so any variant (including one
// loaded from a snapshot file) can serve it.
//
// Usage:
//
//	wtquery -file access.log          # index a file (append-only trie)
//	wtquery -gen 100000               # or a generated URL log
//	wtquery -dynamic -gen 10000       # fully-dynamic variant (ins/del)
//	wtquery -load index.wt            # reopen a snapshot saved with 'save'
//	wtquery -store dir/               # open a durable log-structured store
//	wtquery -store dir/ -file a.log   # ...bulk-loading the file into it
//	wtquery -store dir/ -shards 4     # create a hash-partitioned multi-writer
//	                                  # store (any dir's layout is adopted)
//	wtquery -store dir/ -columns score:u64,meta:bytes   # pin a payload schema
//	wtquery -connect localhost:7070   # drive a running wtserve server
//
// Commands (positions 0-based, ranges half-open):
//
//	access POS
//	rank STR POS          | count STR
//	select STR IDX
//	rankprefix PREF POS   | countprefix PREF
//	selectprefix PREF IDX
//	iterprefix PREF FROM N                  stream prefix matches
//	row POS                                 payload row at a position
//	where EXPR [PREF [FROM [N]]]            predicate scan, e.g. where score>=10 api/
//	distinct L R          | majority L R | topk L R K | threshold L R T
//	slice L R
//	append STR            | insert POS STR | delete POS   (dynamic/append)
//	save FILE             | load FILE
//	flush                 | compact | gens                 (-store only)
//	shards                                                 (-store only)
//	stats                 | metrics | help | quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	wavelettrie "repro"
	"repro/internal/obs"
	"repro/internal/workload"
	"repro/store"
)

// dynamicIndex is the Dynamic-only mutation capability.
type dynamicIndex interface {
	Insert(s string, pos int)
	Delete(pos int) string
}

// storeIndex is the durable-store capability: appends can fail (I/O),
// the generation lifecycle is steerable from the REPL, and the router's
// representation split — the frozen succinct prefix vs the live uint32
// tail, zero without a router — is observable. A local *store.Store and
// a remote connection satisfy it.
type storeIndex interface {
	Append(s string) error
	Flush() error
	Compact() error
	Generations() []store.GenInfo
	MemLen() int
	RouterInfo() store.RouterInfo
}

// prefixIterator is the streamed prefix-match capability, served by
// durable stores (plain and sharded) and remote connections.
type prefixIterator interface {
	IteratePrefix(p string, from int, fn func(idx, pos int) bool)
}

// columnIndex is the payload-column surface — schema discovery, row
// reads and predicate scans. Durable stores (plain and sharded) serve
// it directly; remote connections forward it over the protocol.
type columnIndex interface {
	Schema() []store.ColumnSpec
	Row(pos int) store.Row
	CountWhere(prefix string, preds ...store.Pred) (int, error)
	IterateWhere(prefix string, from int, preds []store.Pred, fn func(idx, pos int) bool) error
}

// rowLine renders one payload row against its schema, one name=value
// pair per column.
func rowLine(schema []store.ColumnSpec, row store.Row) string {
	parts := make([]string, len(schema))
	for i, spec := range schema {
		v := "NULL"
		if i < len(row) && !row[i].IsNull() {
			if row[i].Kind() == store.ColBytes {
				v = strconv.Quote(string(row[i].Blob()))
			} else {
				v = row[i].String()
			}
		}
		parts[i] = spec.Name + "=" + v
	}
	return strings.Join(parts, "  ")
}

// routerLine renders a RouterInfo for the shards/stats commands.
func routerLine(ri store.RouterInfo) string {
	return fmt.Sprintf("router     %.2f bits/elem (%d bits; %d frozen + %d tail chunks)",
		ri.BitsPerElem(), ri.Bits, ri.FrozenChunks, ri.TailChunks)
}

func main() {
	file := flag.String("file", "", "log file to index (one string per line)")
	gen := flag.Int("gen", 0, "generate a URL log of this length instead")
	seed := flag.Int64("seed", 1, "generator seed")
	dynamic := flag.Bool("dynamic", false, "use the fully-dynamic variant")
	load := flag.String("load", "", "reopen a snapshot file instead of indexing")
	storeDir := flag.String("store", "", "open a durable log-structured store in this directory")
	sync := flag.Bool("sync", false, "with -store: fsync the WAL on every append")
	shards := flag.Int("shards", 0, "with -store: create a hash-partitioned store with this many shards (0 = adopt the directory's layout; a flat store if empty)")
	columns := flag.String("columns", "", "with -store: pin a payload column schema at creation, e.g. 'score:u64,meta:bytes' (an existing store's schema is adopted automatically)")
	connect := flag.String("connect", "", "connect to a running wtserve server (host:port) instead of opening anything locally")
	flag.Parse()

	if *shards != 0 && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "wtquery: -shards requires -store")
		os.Exit(2)
	}
	if *columns != "" && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "wtquery: -columns requires -store")
		os.Exit(2)
	}

	var st wavelettrie.StringIndex
	switch {
	case *connect != "":
		if *storeDir != "" || *load != "" || *dynamic || *file != "" || *gen > 0 {
			fmt.Fprintln(os.Stderr, "wtquery: -connect serves a remote store; it cannot be combined with -store, -load, -dynamic, -file or -gen")
			os.Exit(2)
		}
		remote, err := connectRemote(*connect)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wtquery:", err)
			os.Exit(1)
		}
		st = remote
	case *storeDir != "":
		if *load != "" || *dynamic {
			fmt.Fprintln(os.Stderr, "wtquery: -store cannot be combined with -load or -dynamic")
			os.Exit(2)
		}
		cols, err := store.ParseColumns(*columns)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wtquery:", err)
			os.Exit(1)
		}
		db, err := store.OpenSharded(*storeDir, &store.ShardedOptions{Shards: *shards,
			Store: store.Options{Sync: *sync, Columns: cols}})
		if err != nil {
			fmt.Fprintln(os.Stderr, "wtquery:", err)
			os.Exit(1)
		}
		defer db.Close()
		if lines, err := seedLines(*file, *gen, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "wtquery:", err)
			os.Exit(1)
		} else {
			for _, s := range lines {
				if err := db.Append(s); err != nil {
					fmt.Fprintln(os.Stderr, "wtquery:", err)
					os.Exit(1)
				}
			}
		}
		st = db
	case *load != "":
		if *file != "" || *gen > 0 || *dynamic {
			fmt.Fprintln(os.Stderr, "wtquery: -load reopens a snapshot as its saved variant; it cannot be combined with -file, -gen or -dynamic")
			os.Exit(2)
		}
		ix, err := loadSnapshot(*load)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wtquery:", err)
			os.Exit(1)
		}
		st = ix
	default:
		if *file == "" && *gen <= 0 {
			fmt.Fprintln(os.Stderr, "wtquery: need -file, -gen, -load or -store; see -h")
			os.Exit(2)
		}
		lines, err := seedLines(*file, *gen, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wtquery:", err)
			os.Exit(1)
		}
		if *dynamic {
			st = wavelettrie.NewDynamicFrom(lines)
		} else {
			st = wavelettrie.NewAppendOnlyFrom(lines)
		}
	}
	fmt.Printf("indexed %d elements, %d distinct, %.1f bits/elem; type 'help'\n",
		st.Len(), st.AlphabetSize(), float64(st.SizeBits())/float64(max(1, st.Len())))

	repl(st)
}

// seedLines returns the optional bulk-load sequence for a store: the
// file's lines, a generated log, or nothing.
func seedLines(file string, gen int, seed int64) ([]string, error) {
	switch {
	case file != "":
		return readLines(file)
	case gen > 0:
		return workload.URLLog(gen, seed, workload.DefaultURLConfig()), nil
	}
	return nil, nil
}

func readLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines, sc.Err()
}

// loadSnapshot reopens any marshaled index that can serve string queries.
func loadSnapshot(path string) (wavelettrie.StringIndex, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ix, err := wavelettrie.Load(data)
	if err != nil {
		return nil, err
	}
	st, ok := ix.(wavelettrie.StringIndex)
	if !ok {
		return nil, fmt.Errorf("%s holds a %T, which has no string query surface", path, ix)
	}
	return st, nil
}

func repl(st wavelettrie.StringIndex) {
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("wt> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		next, done := execute(st, strings.Fields(line))
		if done {
			return
		}
		st = next
	}
}

// execute runs one command; it returns the (possibly replaced, after
// 'load') current index and whether the REPL should exit.
func execute(st wavelettrie.StringIndex, args []string) (cur wavelettrie.StringIndex, done bool) {
	cur = st
	defer func() {
		if r := recover(); r != nil {
			fmt.Println("error:", r)
		}
	}()
	atoi := func(s string) int {
		v, err := strconv.Atoi(s)
		if err != nil {
			panic(fmt.Sprintf("not a number: %q", s))
		}
		return v
	}
	need := func(k int) {
		if len(args) < k+1 {
			panic(fmt.Sprintf("%s needs %d argument(s)", args[0], k))
		}
	}
	// The analytics and mutation commands are capability-gated: a Frozen
	// snapshot serves only the primitives, a Static adds analytics, the
	// mutable variants everything.
	ranger := func() wavelettrie.RangeIndex {
		r, ok := st.(wavelettrie.RangeIndex)
		if !ok {
			panic(fmt.Sprintf("%s: not supported by %T (frozen snapshots serve primitives only)", args[0], st))
		}
		return r
	}
	switch args[0] {
	case "quit", "exit", "q":
		return cur, true
	case "help":
		fmt.Println("access POS | rank STR POS | count STR | select STR IDX")
		fmt.Println("rankprefix PREF POS | countprefix PREF | selectprefix PREF IDX")
		fmt.Println("iterprefix PREF FROM N   (stream prefix matches; store/remote only)")
		fmt.Println("row POS | where EXPR [PREF [FROM [N]]]   (payload columns; e.g. where score>=10 api/)")
		fmt.Println("distinct L R | majority L R | topk L R K | threshold L R T | slice L R")
		fmt.Println("append STR | insert POS STR | delete POS")
		fmt.Println("flush | compact | gens   (durable store only)")
		fmt.Println("shards                   (local store only)")
		fmt.Println("save FILE | load FILE | stats | metrics | quit")
	case "access":
		need(1)
		fmt.Println(st.Access(atoi(args[1])))
	case "rank":
		need(2)
		fmt.Println(st.Rank(args[1], atoi(args[2])))
	case "count":
		need(1)
		fmt.Println(st.Count(args[1]))
	case "select":
		need(2)
		if pos, ok := st.Select(args[1], atoi(args[2])); ok {
			fmt.Println(pos)
		} else {
			fmt.Println("no such occurrence")
		}
	case "rankprefix":
		need(2)
		fmt.Println(st.RankPrefix(args[1], atoi(args[2])))
	case "countprefix":
		need(1)
		fmt.Println(st.CountPrefix(args[1]))
	case "selectprefix":
		need(2)
		if pos, ok := st.SelectPrefix(args[1], atoi(args[2])); ok {
			fmt.Println(pos)
		} else {
			fmt.Println("no such occurrence")
		}
	case "iterprefix":
		need(3)
		it, ok := st.(prefixIterator)
		if !ok {
			panic(fmt.Sprintf("iterprefix requires a -store or -connect session (not supported by %T)", st))
		}
		from, limit := atoi(args[2]), atoi(args[3])
		shown := 0
		it.IteratePrefix(args[1], from, func(idx, pos int) bool {
			fmt.Printf("%8d  %8d  %s\n", idx, pos, st.Access(pos))
			shown++
			return shown < limit
		})
		fmt.Printf("%d match(es) from index %d\n", shown, from)
	case "row":
		need(1)
		ci, ok := st.(columnIndex)
		if !ok {
			panic(fmt.Sprintf("row requires a -store or -connect session (not supported by %T)", st))
		}
		schema := ci.Schema()
		if len(schema) == 0 {
			panic("store has no column schema")
		}
		fmt.Println(rowLine(schema, ci.Row(atoi(args[1]))))
	case "where":
		// where EXPR [PREF [FROM [N]]] — predicate scan intersected with
		// an optional value prefix, streaming matching rows.
		need(1)
		ci, ok := st.(columnIndex)
		if !ok {
			panic(fmt.Sprintf("where requires a -store or -connect session (not supported by %T)", st))
		}
		schema := ci.Schema()
		pred, err := store.ParsePredicate(args[1], schema)
		if err != nil {
			panic(err)
		}
		var prefix string
		from, limit := 0, 20
		if len(args) > 2 {
			prefix = args[2]
		}
		if len(args) > 3 {
			from = atoi(args[3])
		}
		if len(args) > 4 {
			limit = atoi(args[4])
		}
		preds := []store.Pred{pred}
		shown := 0
		if err := ci.IterateWhere(prefix, from, preds, func(idx, pos int) bool {
			fmt.Printf("%8d  %8d  %-30s %s\n", idx, pos, st.Access(pos), rowLine(schema, ci.Row(pos)))
			shown++
			return shown < limit
		}); err != nil {
			panic(err)
		}
		total := must(ci.CountWhere(prefix, preds...))
		fmt.Printf("%d of %d match(es) from index %d\n", shown, total, from)
	case "distinct":
		need(2)
		for _, d := range ranger().DistinctInRange(atoi(args[1]), atoi(args[2])) {
			fmt.Printf("%8d  %s\n", d.Count, d.Value)
		}
	case "majority":
		need(2)
		if m, ok := ranger().RangeMajority(atoi(args[1]), atoi(args[2])); ok {
			fmt.Println(m)
		} else {
			fmt.Println("no majority")
		}
	case "topk":
		need(3)
		for _, d := range ranger().TopK(atoi(args[1]), atoi(args[2]), atoi(args[3])) {
			fmt.Printf("%8d  %s\n", d.Count, d.Value)
		}
	case "threshold":
		need(3)
		for _, d := range ranger().RangeThreshold(atoi(args[1]), atoi(args[2]), atoi(args[3])) {
			fmt.Printf("%8d  %s\n", d.Count, d.Value)
		}
	case "slice":
		need(2)
		for i, s := range ranger().Slice(atoi(args[1]), atoi(args[2])) {
			fmt.Printf("%8d  %s\n", atoi(args[1])+i, s)
		}
	case "append":
		need(1)
		v := strings.Join(args[1:], " ")
		switch a := st.(type) {
		case storeIndex:
			if err := a.Append(v); err != nil {
				panic(err)
			}
		case wavelettrie.Appender:
			a.Append(v)
		default:
			panic(fmt.Sprintf("append: not supported by %T", st))
		}
		fmt.Println("ok, n =", st.Len())
	case "flush", "compact", "gens":
		// The generation-lifecycle commands are capability-gated on the
		// durable store, like analytics on RangeIndex above.
		db, ok := st.(storeIndex)
		if !ok {
			panic(fmt.Sprintf("%s requires -store (not supported by %T)", args[0], st))
		}
		switch args[0] {
		case "flush":
			if err := db.Flush(); err != nil {
				panic(err)
			}
			fmt.Println("ok,", len(db.Generations()), "generation(s)")
		case "compact":
			if err := db.Compact(); err != nil {
				panic(err)
			}
			fmt.Println("ok,", len(db.Generations()), "generation(s)")
		case "gens":
			for _, g := range db.Generations() {
				backing := "heap"
				if g.Mmapped {
					backing = "mmap"
					if g.ResidentBytes >= 0 {
						backing = fmt.Sprintf("mmap %3.0f%% resident",
							100*float64(g.ResidentBytes)/float64(max(1, g.FileBytes)))
					}
				}
				fmt.Printf("gen %4d  n=%-8d %.1f bits/elem  %7.1f KiB %-18s [%s .. %s]\n",
					g.ID, g.Len, float64(g.SizeBits)/float64(max(1, g.Len)),
					float64(g.FileBytes)/1024, backing,
					trimValue(g.MinValue), trimValue(g.MaxValue))
				if g.ColFileBytes > 0 {
					colBacking := "heap"
					if g.ColMmapped {
						colBacking = "mmap"
						if g.ColResidentBytes >= 0 {
							colBacking = fmt.Sprintf("mmap %3.0f%% resident",
								100*float64(g.ColResidentBytes)/float64(max(1, g.ColFileBytes+g.ColDirFileBytes)))
						}
					}
					fmt.Printf("          cols %7.1f KiB (.col) + %7.1f KiB (.cd)  %s\n",
						float64(g.ColFileBytes)/1024, float64(g.ColDirFileBytes)/1024, colBacking)
				}
			}
			fmt.Printf("memtable  n=%d\n", db.MemLen())
		}
	case "shards":
		db, ok := st.(*store.Store)
		if !ok {
			panic(fmt.Sprintf("shards requires -store (not supported by %T)", st))
		}
		for i := 0; i < db.ShardCount(); i++ {
			fmt.Printf("shard %3d  n=%-8d gens=%-3d memtable=%d\n",
				i, db.ShardLen(i), len(db.ShardGenerations(i)), db.ShardMemLen(i))
		}
		fmt.Printf("total      n=%d across %d shards\n", st.Len(), db.ShardCount())
		if ri := db.RouterInfo(); ri.Bits > 0 {
			fmt.Println(routerLine(ri))
		}
	case "insert":
		need(2)
		d, ok := st.(dynamicIndex)
		if !ok {
			panic("insert requires -dynamic")
		}
		d.Insert(strings.Join(args[2:], " "), atoi(args[1]))
		fmt.Println("ok, n =", st.Len())
	case "delete":
		need(1)
		d, ok := st.(dynamicIndex)
		if !ok {
			panic("delete requires -dynamic")
		}
		fmt.Printf("deleted %q, n = %d\n", d.Delete(atoi(args[1])), st.Len())
	case "save":
		need(1)
		data, err := st.MarshalBinary()
		if err != nil {
			panic(err)
		}
		if err := os.WriteFile(args[1], data, 0o644); err != nil {
			panic(err)
		}
		fmt.Printf("saved %d bytes (%.1f bits/elem on disk)\n",
			len(data), float64(len(data)*8)/float64(max(1, st.Len())))
	case "load":
		need(1)
		ix, err := loadSnapshot(args[1])
		if err != nil {
			panic(err)
		}
		cur = ix
		fmt.Printf("loaded %T: n=%d, |Sset|=%d\n", ix, ix.Len(), ix.AlphabetSize())
	case "stats":
		line := fmt.Sprintf("n=%d  |Sset|=%d  height=%d", st.Len(), st.AlphabetSize(), st.Height())
		if r, ok := st.(wavelettrie.RangeIndex); ok {
			line += fmt.Sprintf("  h~=%.2f", r.AvgHeight())
		}
		fmt.Printf("%s  %.1f bits/elem (%d total)\n", line,
			float64(st.SizeBits())/float64(max(1, st.Len())), st.SizeBits())
		if db, ok := st.(storeIndex); ok {
			if ri := db.RouterInfo(); ri.Bits > 0 {
				fmt.Println(routerLine(ri))
			}
		}
	case "metrics":
		// Remote sessions fetch the server's snapshot over the binary
		// protocol; everything else dumps this process's registry — the
		// same Prometheus text either way.
		if m, ok := st.(interface{ MetricsText() (string, error) }); ok {
			fmt.Print(must(m.MetricsText()))
		} else {
			fmt.Print(obs.Default().TextSnapshot())
		}
	default:
		fmt.Printf("unknown command %q; try 'help'\n", args[0])
	}
	return cur, false
}

// trimValue shortens a generation bound for one-line display, backing
// up to a rune boundary so a multibyte character is never cut in half.
func trimValue(s string) string {
	if len(s) <= 24 {
		return s
	}
	cut := 21
	for cut > 0 && s[cut]&0xC0 == 0x80 { // continuation byte
		cut--
	}
	return s[:cut] + "..."
}
