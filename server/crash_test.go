package server_test

// The crash test re-executes this test binary as a real wtserve-style
// child process (Sync store + Server on loopback), lets concurrent
// clients append acknowledged batches, then SIGKILLs the child mid
// batch stream and reopens the directory in-process. The contract
// under test is the WAL-durable prefix: with Options.Sync every
// acknowledged append survives a kill -9, each client's surviving
// values are a prefix of what it sent (in order, possibly extended by
// an in-flight unacknowledged batch), and the recovered store answers
// the full op surface like a flat oracle over what it actually holds.

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/server"
	"repro/store"
)

// crashSchema is the column schema both crash-test children pin: the
// kill and failover tests append payload rows next to every value, so
// the durable-prefix contract is checked over rows too.
func crashSchema() []store.ColumnSpec {
	return []store.ColumnSpec{
		{Name: "idx", Kind: store.ColUint64},
		{Name: "tag", Kind: store.ColBytes},
	}
}

// crashRowFor derives client g's payload row for its j-th value — a
// pure function of the value, so recovery can recompute the expected
// row for whatever survived. Every 5th row is absent and every 7th tag
// is NULL, so the NULL paths cross the WAL and the wire too.
func crashRowFor(g, j int) store.Row {
	if j%5 == 4 {
		return nil
	}
	row := store.Row{store.U64(uint64(j)), store.Blob([]byte(fmt.Sprintf("tag/g%d", g)))}
	if j%7 == 6 {
		row[1] = store.Null()
	}
	return row
}

// sameRow reports cell-for-cell equality of two payload rows (store.Row
// is not comparable: blob cells carry slices).
func sameRow(a, b store.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		if a[c].Kind() != b[c].Kind() || a[c].U64() != b[c].U64() || !bytes.Equal(a[c].Blob(), b[c].Blob()) {
			return false
		}
	}
	return true
}

// checkCrashRow compares a recovered row against crashRowFor(g, j).
// A nil sent row recovers as all-NULL cells.
func checkCrashRow(t *testing.T, where string, got store.Row, g, j int) {
	t.Helper()
	want := crashRowFor(g, j)
	if len(got) != len(crashSchema()) {
		t.Fatalf("%s: client %d row %d has %d cells", where, g, j, len(got))
	}
	for c, cell := range got {
		w := store.Null()
		if c < len(want) {
			w = want[c]
		}
		if cell.Kind() != w.Kind() || cell.U64() != w.U64() || !bytes.Equal(cell.Blob(), w.Blob()) {
			t.Fatalf("%s: client %d row %d cell %d = %v, want %v", where, g, j, c, cell, w)
		}
	}
}

// TestWTServeCrashChild is the child half: it only runs re-executed by
// TestServerKill9Recovery with the env marker set.
func TestWTServeCrashChild(t *testing.T) {
	dir := os.Getenv("WTSERVE_CRASH_DIR")
	if dir == "" {
		t.Skip("crash-test child; run via TestServerKill9Recovery")
	}
	st, err := store.Open(dir, &store.Options{Sync: true, FlushThreshold: 1 << 8, Columns: crashSchema()})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(st, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Publish the chosen port atomically (write + rename), then serve
	// until killed.
	addrFile := os.Getenv("WTSERVE_CRASH_ADDRFILE")
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(l.Addr().String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	select {} // never exit cleanly; the parent kills us
}

func TestServerKill9Recovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	base := t.TempDir()
	dir := filepath.Join(base, "store")
	addrFile := filepath.Join(base, "addr")

	cmd := exec.Command(os.Args[0], "-test.run=^TestWTServeCrashChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		"WTSERVE_CRASH_DIR="+dir,
		"WTSERVE_CRASH_ADDRFILE="+addrFile,
	)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	addr := waitAddrFile(t, addrFile)

	// Clients stream acknowledged batches until the parent kills the
	// child out from under them, so the kill lands mid batch stream.
	const clients = 3
	acked := make([][]string, clients)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := server.Dial(addr)
			if err != nil {
				return
			}
			defer c.Close()
			for j := 0; ; j += 4 {
				batch := make([]string, 4)
				rows := make([]store.Row, 4)
				for k := range batch {
					batch[k] = fmt.Sprintf("c%d/%06d", g, j+k)
					rows[k] = crashRowFor(g, j+k)
				}
				if err := c.AppendBatchRows(batch, rows); err != nil {
					return // the kill arrived
				}
				mu.Lock()
				acked[g] = append(acked[g], batch...)
				mu.Unlock()
			}
		}(g)
	}

	// Let every client bank some acknowledged batches, then kill -9.
	for deadline := time.Now().Add(10 * time.Second); ; {
		mu.Lock()
		enough := true
		for g := 0; g < clients; g++ {
			if len(acked[g]) < 40 {
				enough = false
			}
		}
		mu.Unlock()
		if enough {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("clients never banked enough acknowledged batches")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	killed = true
	wg.Wait()

	// Reopen the directory the kill left behind (the child's directory
	// lock died with it) and verify the durable-prefix contract.
	st, err := store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sn := st.Snapshot()
	seq := sn.Slice(0, sn.Len())

	next := make([]int, clients)
	for pos, v := range seq {
		var g, j int
		if _, err := fmt.Sscanf(v, "c%d/%06d", &g, &j); err != nil || g < 0 || g >= clients {
			t.Fatalf("position %d holds unknown value %q", pos, v)
		}
		if j != next[g] {
			t.Fatalf("position %d: client %d value %q out of order (expected index %06d)", pos, g, v, next[g])
		}
		// The payload row rode the same WAL record: if the value
		// survived the kill, its row did too, cell for cell.
		checkCrashRow(t, "recovered store", sn.Row(pos), g, j)
		next[g]++
	}
	for g := 0; g < clients; g++ {
		if next[g] < len(acked[g]) {
			t.Fatalf("client %d: %d acknowledged appends, only %d survived the kill",
				g, len(acked[g]), next[g])
		}
	}

	// Differential reads on the recovered store vs a flat oracle over
	// what it actually holds.
	counts := map[string]int{}
	for _, v := range seq {
		counts[v]++
	}
	if got := sn.AlphabetSize(); got != len(counts) {
		t.Fatalf("AlphabetSize = %d, the recovered sequence holds %d distinct values", got, len(counts))
	}
	for g := 0; g < clients; g++ {
		probe := fmt.Sprintf("c%d/%06d", g, 0)
		if got := sn.Count(probe); got != counts[probe] {
			t.Fatalf("Count(%q) = %d, want %d", probe, got, counts[probe])
		}
		prefix := fmt.Sprintf("c%d/", g)
		if got := sn.CountPrefix(prefix); got != next[g] {
			t.Fatalf("CountPrefix(%q) = %d, want %d", prefix, got, next[g])
		}
	}
	for pos := 0; pos < len(seq); pos += 17 {
		if got := sn.Access(pos); got != seq[pos] {
			t.Fatalf("Access(%d) = %q, want %q", pos, got, seq[pos])
		}
	}
	t.Logf("killed mid-stream with %d+%d+%d acked; %d records survived",
		len(acked[0]), len(acked[1]), len(acked[2]), len(seq))
}

// waitAddrFile polls for a child's atomically-published address file.
func waitAddrFile(t *testing.T, path string) string {
	t.Helper()
	for i := 0; i < 400; i++ {
		data, err := os.ReadFile(path)
		if err == nil && len(data) > 0 {
			return string(data)
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("child never published %s", path)
	return ""
}

// TestWTServeFollowerChild is the follower half of the failover test:
// it opens its own store, follows the primary named in the env, and
// serves the read surface until the parent kills it.
func TestWTServeFollowerChild(t *testing.T) {
	dir := os.Getenv("WTSERVE_FOLLOW_DIR")
	if dir == "" {
		t.Skip("failover-test child; run via TestFailoverPromoteFollower")
	}
	st, err := store.Open(dir, &store.Options{FlushThreshold: 1 << 8, Columns: crashSchema()})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(st, &server.Options{ReplHeartbeat: 100 * time.Millisecond})
	if err := srv.Follow(os.Getenv("WTSERVE_FOLLOW_PRIMARY"), "failover-follower"); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrFile := os.Getenv("WTSERVE_FOLLOW_ADDRFILE")
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(l.Addr().String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		t.Fatal(err)
	}
	srv.Serve(l)
	select {} // never exit cleanly; the parent kills us
}

// TestFailoverPromoteFollower is the failover-grade crash test: a real
// primary process replicates to a real follower process while clients
// stream acknowledged batches and a confirmer tracks the follower's
// watermark (the read-your-writes confirmations). The parent SIGKILLs
// the primary mid-stream, promotes the follower over the wire, and
// verifies: every RYW-confirmed append survived on the promoted
// follower, the follower's content is an exact prefix of the dead
// primary's durable sequence, the full op surface agrees with a flat
// oracle, and the promoted server accepts writes.
func TestFailoverPromoteFollower(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	base := t.TempDir()
	primDir := filepath.Join(base, "primary")
	folDir := filepath.Join(base, "follower")
	primAddrFile := filepath.Join(base, "prim.addr")
	folAddrFile := filepath.Join(base, "fol.addr")

	primCmd := exec.Command(os.Args[0], "-test.run=^TestWTServeCrashChild$", "-test.v")
	primCmd.Env = append(os.Environ(),
		"WTSERVE_CRASH_DIR="+primDir,
		"WTSERVE_CRASH_ADDRFILE="+primAddrFile,
	)
	if err := primCmd.Start(); err != nil {
		t.Fatal(err)
	}
	primKilled := false
	defer func() {
		if !primKilled {
			primCmd.Process.Kill()
			primCmd.Wait()
		}
	}()
	primAddr := waitAddrFile(t, primAddrFile)

	folCmd := exec.Command(os.Args[0], "-test.run=^TestWTServeFollowerChild$", "-test.v")
	folCmd.Env = append(os.Environ(),
		"WTSERVE_FOLLOW_DIR="+folDir,
		"WTSERVE_FOLLOW_ADDRFILE="+folAddrFile,
		"WTSERVE_FOLLOW_PRIMARY="+primAddr,
	)
	if err := folCmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		folCmd.Process.Kill()
		folCmd.Wait()
	}()
	folAddr := waitAddrFile(t, folAddrFile)

	// Writers stream acknowledged batches at the primary; the confirmer
	// rides the follower's watermark. Everything at or below `confirmed`
	// is a read-your-writes-confirmed append: a client was told the
	// follower holds it.
	const clients = 3
	acked := make([][]string, clients)
	var mu sync.Mutex
	var maxSeq, confirmed uint64
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := server.Dial(primAddr)
			if err != nil {
				return
			}
			defer c.Close()
			for j := 0; ; j += 4 {
				batch := make([]string, 4)
				rows := make([]store.Row, 4)
				for k := range batch {
					batch[k] = fmt.Sprintf("c%d/%06d", g, j+k)
					rows[k] = crashRowFor(g, j+k)
				}
				seq, err := c.AppendBatchRowsSeq(batch, rows)
				if err != nil {
					return // the kill arrived
				}
				mu.Lock()
				acked[g] = append(acked[g], batch...)
				if seq > maxSeq {
					maxSeq = seq
				}
				mu.Unlock()
			}
		}(g)
	}
	stopConfirm := make(chan struct{})
	confirmDone := make(chan struct{})
	go func() {
		defer close(confirmDone)
		fc, err := server.Dial(folAddr)
		if err != nil {
			return
		}
		defer fc.Close()
		for {
			select {
			case <-stopConfirm:
				return
			default:
			}
			mu.Lock()
			target := maxSeq
			mu.Unlock()
			if target == 0 {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			wm, _, err := fc.WaitFor(target, 300*time.Millisecond)
			if err != nil {
				return
			}
			mu.Lock()
			if wm > confirmed {
				confirmed = wm
			}
			mu.Unlock()
		}
	}()

	// Kill only once every client has banked acknowledged batches AND
	// the follower has confirmed a healthy chunk of the stream — so the
	// zero-loss assertion below has teeth.
	for deadline := time.Now().Add(30 * time.Second); ; {
		mu.Lock()
		enough := confirmed >= 100
		for g := 0; g < clients; g++ {
			if len(acked[g]) < 40 {
				enough = false
			}
		}
		mu.Unlock()
		if enough {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("clients/confirmer never banked enough progress")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := primCmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	primCmd.Wait()
	primKilled = true
	wg.Wait()
	close(stopConfirm)
	<-confirmDone
	mu.Lock()
	confirmedWM := confirmed
	mu.Unlock()

	// Promote the surviving follower over the wire and read everything
	// it holds.
	fc := dial(t, folAddr)
	was, err := fc.Promote()
	if err != nil || !was {
		t.Fatalf("Promote = %v, %v; want true", was, err)
	}
	fst, err := fc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(fst.Len) < confirmedWM {
		t.Fatalf("promoted follower holds %d records, lost RYW-confirmed history up to %d",
			fst.Len, confirmedWM)
	}
	folSeq, err := fc.Slice(0, fst.Len)
	if err != nil {
		t.Fatal(err)
	}

	// The follower's content must be an exact prefix of the dead
	// primary's durable sequence: replication ships only committed
	// (WAL-synced) records.
	st, err := store.Open(primDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	psn := st.Snapshot()
	if psn.Len() < len(folSeq) {
		t.Fatalf("primary recovered %d records, follower holds %d", psn.Len(), len(folSeq))
	}
	for pos, v := range folSeq {
		if pv := psn.Access(pos); pv != v {
			t.Fatalf("position %d: follower %q, primary %q", pos, v, pv)
		}
	}

	// Per-client ordering: each client's surviving values are an
	// in-order prefix of what it sent. The payload rows replicated with
	// them: every follower row matches what the client attached, and is
	// byte-identical to the dead primary's durable row at that position.
	next := make([]int, clients)
	for pos, v := range folSeq {
		var g, j int
		if _, err := fmt.Sscanf(v, "c%d/%06d", &g, &j); err != nil || g < 0 || g >= clients {
			t.Fatalf("position %d holds unknown value %q", pos, v)
		}
		if j != next[g] {
			t.Fatalf("position %d: client %d value %q out of order (expected index %06d)", pos, g, v, next[g])
		}
		if pos%7 == 0 { // sampled: each probe is a round trip
			folRow, err := fc.Row(pos)
			if err != nil {
				t.Fatal(err)
			}
			checkCrashRow(t, "promoted follower", folRow, g, j)
			if primRow := psn.Row(pos); !sameRow(folRow, primRow) {
				t.Fatalf("position %d: follower row %v, primary row %v", pos, folRow, primRow)
			}
		}
		next[g]++
	}

	// Differential op surface on the promoted follower vs the flat
	// oracle of what it holds.
	probeOpSurface(t, fc, folSeq, 200)

	// The promoted follower is a real primary now: writes are accepted
	// and land right after the surviving history.
	seq2, err := fc.AppendSeq("promoted/write")
	if err != nil {
		t.Fatal(err)
	}
	if seq2 != uint64(len(folSeq))+1 {
		t.Fatalf("post-promotion seq = %d, want %d", seq2, len(folSeq)+1)
	}
	if got, err := fc.Access(len(folSeq)); err != nil || got != "promoted/write" {
		t.Fatalf("Access(tail) = %q, %v", got, err)
	}
	t.Logf("killed primary with %d+%d+%d acked, %d RYW-confirmed; follower survived with %d records",
		len(acked[0]), len(acked[1]), len(acked[2]), confirmedWM, len(folSeq))
}
