package server_test

// Race-stress: many client goroutines hammer one server with mixed
// appends, point reads, scans and admin ops while the store flushes
// and compacts underneath. Run under -race in CI; correctness here is
// "no data race, no error, no hang" — exact answers are the
// differential test's job.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/server"
	"repro/store"
)

func TestServerRaceStress(t *testing.T) {
	_, addr := startServer(t, 2,
		&store.Options{FlushThreshold: 1 << 7}, nil)

	const clients = 6
	deadline := time.Now().Add(1500 * time.Millisecond)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := server.Dial(addr)
			if err != nil {
				errs[g] = err
				return
			}
			defer c.Close()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; time.Now().Before(deadline); i++ {
				switch r.Intn(10) {
				case 0, 1, 2, 3:
					batch := make([]string, 1+r.Intn(8))
					for k := range batch {
						batch[k] = fmt.Sprintf("s%d/%05d", g, i*8+k)
					}
					if err := c.AppendBatch(batch); err != nil {
						errs[g] = err
						return
					}
				case 4, 5:
					st, err := c.Stats()
					if err != nil {
						errs[g] = err
						return
					}
					if st.Len > 0 {
						if _, err := c.Access(r.Intn(st.Len)); err != nil {
							errs[g] = err
							return
						}
					}
				case 6:
					if _, err := c.CountPrefix(fmt.Sprintf("s%d/", r.Intn(clients))); err != nil {
						errs[g] = err
						return
					}
				case 7:
					if _, _, err := c.SelectPrefix(fmt.Sprintf("s%d/", r.Intn(clients)), r.Intn(50)); err != nil {
						errs[g] = err
						return
					}
				case 8:
					n := 0
					err := c.Scan(0, 200, 64, func(pos int, v string) bool {
						n++
						return n < 120 // sometimes stop early
					})
					if err != nil {
						errs[g] = err
						return
					}
				case 9:
					if g == 0 {
						if err := c.Flush(); err != nil {
							errs[g] = err
							return
						}
					} else if _, err := c.Count(fmt.Sprintf("s%d/%05d", g, r.Intn(200))); err != nil {
						errs[g] = err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", g, err)
		}
	}
}
