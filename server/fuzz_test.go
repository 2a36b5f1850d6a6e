package server

import (
	"reflect"
	"testing"
)

// FuzzParseRequest hammers the server's trust boundary: arbitrary
// bytes must decode to a request or an error, never panic, never
// allocate absurdly — and every valid encoding must re-encode to the
// same bytes (the decoder accepts nothing the encoder cannot produce).
func FuzzParseRequest(f *testing.F) {
	for _, req := range requestCases() {
		f.Add(EncodeRequest(req))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Add([]byte{OpAppendBatch, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add(EncodeSubscribe(SubscribeReq{FollowerID: "f1", FromSeq: 0}))
	f.Add(EncodeSubscribe(SubscribeReq{FollowerID: "h-9", FromSeq: 1 << 50}))
	f.Add([]byte{OpSubscribe, 1, 'x', 0, 1}) // protocol-3 shape: trailing boot flag
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRequest(data)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode and decode to the same request
		// (byte equality is too strong: uvarints admit redundant
		// encodings a fuzzer will find).
		again, err := ParseRequest(EncodeRequest(req))
		if err != nil {
			t.Fatalf("re-parse of %+v: %v", req, err)
		}
		if len(req.Values) == 0 {
			req.Values = nil
		}
		if len(again.Values) == 0 {
			again.Values = nil
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("re-parse of %+v gave %+v", req, again)
		}
	})
}

// FuzzParseWALFrame hammers the follower's trust boundary: torn
// frames, flipped bits, lying counts and bad checksums must error,
// never panic — and every accepted frame must re-encode and re-parse
// to the same frame.
func FuzzParseWALFrame(f *testing.F) {
	for _, fr := range frameCases() {
		f.Add(EncodeWALFrame(fr))
	}
	f.Add([]byte{})
	f.Add([]byte{FrameRecords, 0, 0, 0, 0})
	f.Add([]byte{FrameAck, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	// The protocol-3 snapshot frames (begin, chunk, end): unknown kinds now.
	f.Add([]byte{2, 0xB9, 0x60})
	f.Add([]byte{3, 0x3A, 0x7B, 0x0A, 0xD8, 4, 0, 1, 2, 0xFF})
	f.Add([]byte{4})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ParseWALFrame(data)
		if err != nil {
			return
		}
		again, err := ParseWALFrame(EncodeWALFrame(fr))
		if err != nil {
			t.Fatalf("re-parse of %+v: %v", fr, err)
		}
		if len(fr.Values) == 0 {
			fr.Values = nil
		}
		if len(again.Values) == 0 {
			again.Values = nil
		}
		if !reflect.DeepEqual(again, fr) {
			t.Fatalf("re-parse of %+v gave %+v", fr, again)
		}
	})
}
