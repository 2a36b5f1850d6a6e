package main

import (
	"context"
	"fmt"
	"net"
	"testing"

	"repro/server"
	"repro/store"
)

// TestRemoteCountWhereMatchesLocal counts predicate matches over
// -connect and directly on the served store: the two agree for every
// prefix and predicate set, on a store with a generation and a memtable.
func TestRemoteCountWhereMatchesLocal(t *testing.T) {
	db, err := store.Open(t.TempDir(), &store.Options{
		DisableAutoFlush: true,
		Columns:          []store.ColumnSpec{{Name: "status", Kind: store.ColUint64}, {Name: "ua", Kind: store.ColBytes}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for g := 0; g < 2; g++ {
		vals, rows := make([]string, 300), make([]store.Row, 300)
		for i := range vals {
			vals[i] = fmt.Sprintf("host%d/path%d", i%4, i%7)
			if i%5 != 0 {
				rows[i] = store.Row{store.U64(uint64(200 + 100*(i%4))), store.Blob([]byte("curl"))}
			}
		}
		if err := db.AppendBatchRows(vals, rows); err != nil {
			t.Fatal(err)
		}
		if g == 0 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv := server.New(db, nil)
	defer srv.Shutdown(context.Background())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	remote, err := connectRemote(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	sn := db.Snapshot()
	for _, prefix := range []string{"", "host1", "host2/path3", "nohost"} {
		for _, exprs := range [][]string{nil, {"status>=300"}, {"status>=300", "status<500"}, {"status==999"}} {
			var preds []store.Pred
			for _, e := range exprs {
				p, err := store.ParsePredicate(e, db.Schema())
				if err != nil {
					t.Fatal(err)
				}
				preds = append(preds, p)
			}
			want, err := sn.CountWhere(prefix, preds...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := remote.CountWhere(prefix, preds...)
			if err != nil || got != want {
				t.Errorf("CountWhere(%q, %v): remote %d (%v), local %d", prefix, exprs, got, err, want)
			}
		}
	}
	// A predicate the schema refuses is refused remotely too.
	if _, err := remote.CountWhere("", store.Pred{Col: 1, Op: store.PredGE, Val: 1}); err == nil {
		t.Error("a range predicate on a bytes column counted remotely")
	}
}
