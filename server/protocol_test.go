package server

import (
	"bytes"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/wire"
	"repro/store"
)

// requestCases covers every opcode with representative arguments —
// shared by the round-trip test and the fuzz corpus.
func requestCases() []Request {
	return []Request{
		{Op: OpPing, Pos: ProtocolVersion},
		{Op: OpAppend, Value: "hello"},
		{Op: OpAppend, Value: ""},
		{Op: OpAppendBatch, Values: []string{"a", "", "longer/value/with/path", "a"}},
		{Op: OpAppendBatch, Values: []string{}},
		{Op: OpAccess, Pos: 12345},
		{Op: OpRank, Value: "v", Pos: 7},
		{Op: OpCount, Value: "vv"},
		{Op: OpSelect, Value: "x", Pos: 3},
		{Op: OpRankPrefix, Value: "/pre", Pos: 100},
		{Op: OpCountPrefix, Value: ""},
		{Op: OpSelectPrefix, Value: "p", Pos: 0},
		{Op: OpIterate, Seq: 0, Pos: 10, Max: 256},
		{Op: OpIterate, Seq: 99, Pos: 0, Max: 0},
		{Op: OpIterate, Seq: math.MaxUint64, Pos: 7, Max: 1},
		{Op: OpIteratePrefix, Value: "api/", Pos: 5, Max: 100},
		{Op: OpIteratePrefix, Value: "", Pos: 0, Max: 0},
		{Op: OpFlush},
		{Op: OpCompact},
		{Op: OpStats},
		{Op: OpSubscribe, Value: "follower-1", Seq: 42},
		{Op: OpSubscribe, Value: "", Seq: 0},
		{Op: OpReplWait, Seq: 7777, Max: 500},
		{Op: OpPromote},
		{Op: OpAppend, Value: "v", Rows: []store.Row{{store.U64(7), store.Blob([]byte("meta")), store.Null()}}},
		{Op: OpAppendBatch, Values: []string{"a", "b"}, Rows: []store.Row{nil, {store.U64(1)}}},
		{Op: OpRow, Pos: 99},
		{Op: OpScanWhere, Value: "api/", Pos: 3, Max: 50, Preds: []store.Pred{
			{Col: 0, Op: store.PredGE, Val: 10}, {Col: 2, Op: store.PredNE, Val: 0}}},
		{Op: OpScanWhere, Value: "", Pos: 0, Max: 0},
		{Op: OpCountWhere, Value: "api/", Preds: []store.Pred{{Col: 1, Op: store.PredLT, Val: 500}}},
		{Op: OpCountWhere, Value: ""},
		{Op: OpMetrics},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, want := range requestCases() {
		payload := EncodeRequest(want)
		got, err := ParseRequest(payload)
		if err != nil {
			t.Fatalf("op %d: parse: %v", want.Op, err)
		}
		// An empty batch decodes as a nil slice; normalize.
		if len(want.Values) == 0 {
			want.Values = nil
		}
		if len(got.Values) == 0 {
			got.Values = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: round trip %+v -> %+v", want.Op, want, got)
		}
	}
}

// TestOpTable: every opcode has a name of its own and at least one
// requestCases entry, so the round trip, the golden and the fuzz seeds
// drawn from requestCases reach every op.
func TestOpTable(t *testing.T) {
	cased := map[byte]bool{}
	for _, c := range requestCases() {
		cased[c.Op] = true
	}
	named := map[string]byte{}
	for op := byte(0); op < opLimit; op++ {
		name := ops[op].name
		if prev, dup := named[name]; name == "" || dup {
			t.Errorf("opcode %d is named %q, like opcode %d or not at all", op, name, prev)
		}
		named[name] = op
		if op > 0 && !cased[op] {
			t.Errorf("opcode %d (%s) has no requestCases entry", op, name)
		}
	}
}

// TestRequestGolden pins the request bytes: the hex of EncodeRequest
// for every requestCases() entry, one line each, against
// testdata/requests.golden. Run with -update to rewrite the file.
func TestRequestGolden(t *testing.T) {
	var out strings.Builder
	for _, req := range requestCases() {
		out.WriteString(hex.EncodeToString(EncodeRequest(req)) + "\n")
	}
	path := filepath.Join("testdata", "requests.golden")
	if *UpdateGolden {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wl := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wl) {
		t.Fatalf("%d encodings, %s holds %d", len(got)-1, path, len(wl)-1)
	}
	for i, c := range requestCases() {
		if got[i] != wl[i] {
			t.Errorf("case %d %+v encodes as %s, %s holds %s", i, c, got[i], path, wl[i])
		}
	}
}

// TestSubscribeRoundTrip: the follower's subscribe encoder speaks the
// request format ParseRequest reads.
func TestSubscribeRoundTrip(t *testing.T) {
	for _, sub := range []SubscribeReq{
		{FollowerID: "f1", FromSeq: 0},
		{FollowerID: "host-123", FromSeq: 1 << 33},
	} {
		want := Request{Op: OpSubscribe, Value: sub.FollowerID, Seq: sub.FromSeq}
		if got, err := ParseRequest(EncodeSubscribe(sub)); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("subscribe %+v: parsed %+v, %v; want %+v", sub, got, err, want)
		}
	}
}

func TestParseRequestRejects(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},              // opcode zero is invalid
		{byte(opLimit)},  // one past the last opcode
		{OpAccess},       // missing position
		{OpRank, 1, 'v'}, // missing position after value
		append(EncodeRequest(Request{Op: OpStats}), 0xFF), // trailing junk
		{OpSubscribe, 1, 'f', 0, 1},                       // protocol-3 subscribe: the boot flag is trailing junk now
		{OpIterate, 0, 0},                                 // missing max
	}
	for i, payload := range cases {
		if _, err := ParseRequest(payload); err == nil {
			t.Errorf("case %d (% x): no error", i, payload)
		}
	}
	// A batch claiming more values than the payload can hold must error
	// before allocating.
	huge := []byte{OpAppendBatch, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := ParseRequest(huge); err == nil {
		t.Error("huge batch count: no error")
	}
	// A row claiming more cells than the cap must error before looping.
	hugeRow := []byte{OpAppend, 0 /* empty value */, 1 /* one row */, 0xFF, 0x7F /* 16383 cells */}
	if _, err := ParseRequest(hugeRow); err == nil {
		t.Error("huge row cell count: no error")
	}
	// An append carrying a row count that disagrees with its value count
	// must error.
	twoRows := []byte{OpAppend, 0, 2, 0, 0}
	if _, err := ParseRequest(twoRows); err == nil {
		t.Error("row/value count mismatch: no error")
	}
	// An unknown cell kind must error.
	badKind := []byte{OpAppend, 0, 1, 1 /* one cell */, 9 /* kind 9 */}
	if _, err := ParseRequest(badKind); err == nil {
		t.Error("unknown cell kind: no error")
	}
}

func TestStatsRoundTrip(t *testing.T) {
	want := Stats{
		Len: 100, Distinct: 12, Height: 9, SizeBits: 4096, MemLen: 40, Shards: 4,
		GoMaxProcs: 8, NumCPU: 16,
		RouterBits: 9999, RouterFrozenChunks: 3, RouterTailChunks: 1,
		Watermark: 100, Following: "127.0.0.1:9000", Followers: 2,
		Gens: []GenStat{
			{ID: 3, Len: 30, SizeBits: 2048, FilterBits: 128, MinValue: "a", MaxValue: "zz"},
			{ID: 5, Len: 30, SizeBits: 2000, FilterBits: 120, MinValue: "", MaxValue: "q/x"},
		},
		Schema: []store.ColumnSpec{
			{Name: "score", Kind: store.ColUint64},
			{Name: "meta", Kind: store.ColBytes},
		},
	}
	w := wire.NewRawWriter()
	encodeStats(w, want)
	got := parseStats(wire.NewRawReader(w.Bytes()))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stats round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{0xAB}, 1000), {2, 3}, {}}
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	// Each frame is read into the one before's buffer, as the request loop
	// does: small after large, empty after small.
	var frame []byte
	for _, want := range payloads {
		var err error
		if frame, err = readFrame(&buf, frame); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, want) {
			t.Fatalf("frame round trip: got % x, want % x", frame, want)
		}
	}
	// An implausible frame length is rejected before allocation.
	if _, err := readFrame(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF}), nil); err == nil {
		t.Error("oversized frame length: no error")
	}
}
