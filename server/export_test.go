package server

import (
	"flag"
	"fmt"

	"repro/internal/wire"
)

// UpdateGolden is the -update flag: the golden tests of both test
// packages rewrite their testdata/*.golden file from the current code.
var UpdateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// ReplCatchupFrameBytes exposes the catch-up frame byte cap to the
// external test package.
const ReplCatchupFrameBytes = replCatchupFrameBytes

// EncodeRequest serializes a request payload (without the frame header).
func EncodeRequest(req Request) []byte {
	w := wire.NewRawWriter()
	encodeRequest(w, &req)
	return w.Bytes()
}

// SubscribeReq is an OpSubscribe request: the follower's id and the
// global sequence number it wants the stream to start at.
type SubscribeReq struct {
	FollowerID string
	FromSeq    uint64
}

// EncodeSubscribe serializes a subscribe request payload.
func EncodeSubscribe(req SubscribeReq) []byte {
	return EncodeRequest(Request{Op: OpSubscribe, Value: req.FollowerID, Seq: req.FromSeq})
}

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
