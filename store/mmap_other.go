//go:build !unix

package store

import "errors"

// mmapSupported says whether loadGeneration maps generation files;
// without it every file is read onto the heap and decoded there.
const mmapSupported = false

// mmapRegion is never constructed on this platform; the type exists so
// generation can carry the field unconditionally.
type mmapRegion struct {
	data []byte
}

func (r *mmapRegion) unmap() {}

func mapFile(path string) (*mmapRegion, error) {
	return nil, errors.New("store: mmap unsupported on this platform")
}

// residentBytes reports how much of data is resident in physical
// memory; unknown here.
func residentBytes(data []byte) int { return -1 }
