package server_test

import (
	"context"
	"fmt"
	"net"
	"os"

	"repro/server"
	"repro/store"
)

// ExampleServer starts a server over a fresh store on loopback, drives
// it with the binary-protocol client — batched ingest, point queries,
// a pinned-snapshot scan — and drains it.
func ExampleServer() {
	dir, _ := os.MkdirTemp("", "wtserve-example-*")
	defer os.RemoveAll(dir)

	st, err := store.Open(dir, nil)
	if err != nil {
		panic(err)
	}
	defer st.Close()

	srv := server.New(st, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go srv.Serve(l)

	c, err := server.Dial(l.Addr().String())
	if err != nil {
		panic(err)
	}
	defer c.Close()

	// One round trip, one group commit, atomic and order-preserving.
	if err := c.AppendBatch([]string{
		"GET /index.html", "GET /logo.png", "POST /login", "GET /index.html",
	}); err != nil {
		panic(err)
	}

	count, _ := c.Count("GET /index.html")
	gets, _ := c.CountPrefix("GET ")
	pos, ok, _ := c.Select("GET /index.html", 1)
	fmt.Printf("count=%d gets=%d second-at=%d ok=%v\n", count, gets, pos, ok)

	// The scan walks one pinned snapshot, immune to concurrent appends.
	c.Scan(0, -1, 2, func(pos int, v string) bool {
		fmt.Printf("%d: %s\n", pos, v)
		return true
	})

	if err := srv.Shutdown(context.Background()); err != nil {
		panic(err)
	}
	// Output:
	// count=2 gets=3 second-at=3 ok=true
	// 0: GET /index.html
	// 1: GET /logo.png
	// 2: POST /login
	// 3: GET /index.html
}
