package server

import "fmt"

// ReplCatchupFrameBytes exposes the catch-up frame byte cap to the
// external test package.
const ReplCatchupFrameBytes = replCatchupFrameBytes

// Slice returns the elements of positions [l, r) as a fresh slice.
func (c *Client) Slice(l, r int) ([]string, error) {
	if r < l {
		return nil, fmt.Errorf("server: Slice(%d,%d) inverted", l, r)
	}
	out := make([]string, 0, r-l)
	err := c.Scan(l, r-l, 0, func(_ int, v string) bool {
		out = append(out, v)
		return true
	})
	return out, err
}
