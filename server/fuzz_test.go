package server

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/wire"
	"repro/store"
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

// FuzzStep sends arbitrary frames through the request handler — the one
// path every binary request and every gateway call takes — on a small
// columnar store: step must return without panicking, and its reply must
// parse as a statusOK or a statusErr response. A frame that parses as
// OpSubscribe is skipped (it hands the connection over instead of
// answering), and OpReplWait waits at most a millisecond.
func FuzzStep(f *testing.F) {
	db, err := store.Open(f.TempDir(), &store.Options{
		DisableAutoFlush: true,
		Columns:          []store.ColumnSpec{{Name: "score", Kind: store.ColUint64}, {Name: "meta", Kind: store.ColBytes}},
	})
	if err != nil {
		f.Fatal(err)
	}
	for g := 0; g < 2; g++ {
		vals, rows := make([]string, 64), make([]store.Row, 64)
		for i := range vals {
			vals[i] = fmt.Sprintf("api/%d/%d", i%5, g*64+i)
			rows[i] = store.Row{store.U64(uint64(i)), store.Blob([]byte(vals[i][:5]))}
		}
		if err := db.AppendBatchRows(vals, rows); err != nil {
			f.Fatal(err)
		}
		if g == 0 {
			if err := db.Flush(); err != nil {
				f.Fatal(err)
			}
		}
	}
	s := New(db, nil)
	f.Cleanup(func() {
		s.Shutdown(context.Background())
		db.Close()
	})
	for _, req := range requestCases() {
		f.Add(EncodeRequest(req))
	}
	f.Add(EncodeRequest(Request{Op: OpAccess, Pos: 1 << 20}))
	f.Add(EncodeRequest(Request{Op: OpIterate, Seq: 1 << 20}))
	f.Add(EncodeRequest(Request{Op: OpCountWhere, Value: "api/1", Preds: []store.Pred{{Col: 1, Op: store.PredGE, Val: 3}}}))
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	var c connState
	f.Fuzz(func(t *testing.T, frame []byte) {
		req, err := ParseRequest(frame)
		if err == nil && req.Op == OpSubscribe {
			return
		}
		if err == nil && req.Op == OpReplWait && req.Max > 1 {
			req.Max = 1
			frame = EncodeRequest(req)
		}
		resp, _, _ := s.step(&c, frame)
		r := wire.NewRawReader(resp)
		switch status := r.Byte(); status {
		case statusOK:
		case statusErr:
			r.Str()
			if err := r.Done(); err != nil {
				t.Fatalf("frame % x: malformed error reply % x: %v", frame, resp, err)
			}
		default:
			t.Fatalf("frame % x: reply % x has status %d", frame, resp, status)
		}
		c.release()
	})
}
