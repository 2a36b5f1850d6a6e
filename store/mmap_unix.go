//go:build unix

package store

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
)

// mmapSupported says whether loadGeneration maps generation files; on
// platforms without it every file is read onto the heap and decoded
// there.
const mmapSupported = true

// mmapRegion is a read-only mapping of one generation file, backing its
// Frozen index and its column set. Both keep the region reachable (the
// Frozen via its backing handle), so the mapping outlives compaction's
// unlink of the file — POSIX keeps mapped pages valid after unlink — and
// snapshots pinning a superseded generation keep reading it safely. The
// finalizer unmaps once the last reference to the region is collected;
// there is no eager unmap, because proving no snapshot still aliases the
// bits is exactly the problem the GC already solves.
type mmapRegion struct {
	data []byte
}

func (r *mmapRegion) unmap() {
	if r.data != nil {
		syscall.Munmap(r.data)
		r.data = nil
	}
}

// mapFile maps path read-only and shared (page cache pages, shared
// across processes serving the same directory).
func mapFile(path string) (*mmapRegion, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size <= 0 || size != int64(int(size)) {
		return nil, fmt.Errorf("store: cannot map %d-byte file", size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, err
	}
	r := &mmapRegion{data: data}
	runtime.SetFinalizer(r, (*mmapRegion).unmap)
	return r, nil
}
