package server

import (
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"repro/store"
)

// frameCases covers every frame kind with representative contents —
// shared by the round-trip test and the fuzz corpus.
func frameCases() []WALFrame {
	return []WALFrame{
		{Kind: FrameRecords, Seq: 0, Values: []string{"a"}},
		{Kind: FrameRecords, Seq: 1 << 40, Values: []string{"", "x", strings.Repeat("v", 300)}},
		{Kind: FrameRecords, Seq: 7, Values: []string{"a", "b"},
			Rows: []store.Row{{store.U64(42), store.Blob([]byte("m")), store.Null()}, nil}},
		{Kind: FrameRecords, Seq: 3, Values: []string{"", ""}, Rows: []store.Row{nil, nil}},
		{Kind: FrameHeartbeat, Seq: 99},
		{Kind: FrameAck, Seq: 7},
	}
}

func TestWALFrameRoundTrip(t *testing.T) {
	for _, want := range frameCases() {
		got, err := ParseWALFrame(EncodeWALFrame(want))
		if err != nil {
			t.Fatalf("kind %d: parse: %v", want.Kind, err)
		}
		if len(want.Values) == 0 {
			want.Values = nil
		}
		if len(got.Values) == 0 {
			got.Values = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("kind %d: round trip %+v -> %+v", want.Kind, want, got)
		}
	}
}

func TestParseWALFrameRejects(t *testing.T) {
	records := EncodeWALFrame(WALFrame{Kind: FrameRecords, Seq: 5, Values: []string{"abc", "de"}})

	flipped := append([]byte(nil), records...)
	flipped[len(flipped)-1] ^= 0x01 // corrupt the body under the CRC

	badCRC := append([]byte(nil), records...)
	badCRC[2] ^= 0xFF // corrupt the checksum itself

	cases := [][]byte{
		nil,
		{},
		{0},                      // kind zero is invalid
		{FrameAck + 1},           // one past the last kind
		{2, 0xB9, 0x60},          // protocol-3 snapshot begin
		{3, 0, 0, 0, 0, 0},       // protocol-3 snapshot chunk (empty, CRC 0)
		{4},                      // protocol-3 snapshot end
		{FrameRecords},           // truncated before the CRC
		{FrameRecords, 1, 2},     // still truncated
		records[:len(records)-1], // torn tail: CRC over a shorter body mismatches
		flipped,
		badCRC,
		append(append([]byte(nil), EncodeWALFrame(WALFrame{Kind: FrameAck, Seq: 1})...), 0xAB), // trailing junk
		{FrameAck}, // missing sequence number
		// A records frame claiming more values than the payload holds
		// must error before allocating (CRC is over the lying body).
		EncodeWALFrame(WALFrame{Kind: FrameRecords, Seq: 0, Values: nil})[:0], // placeholder replaced below
	}
	// Build the lying-count case by hand: kind, a correct CRC over a
	// body whose value count (2^60) exceeds the payload.
	lyingBody := []byte{0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	lying := append([]byte{FrameRecords}, binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(lyingBody))...)
	cases[len(cases)-1] = append(lying, lyingBody...)

	for i, payload := range cases {
		if _, err := ParseWALFrame(payload); err == nil {
			t.Errorf("case %d (% x): no error", i, payload)
		}
	}
}

func TestCheckStreamSeq(t *testing.T) {
	if err := checkStreamSeq(10, 10, 3); err != nil {
		t.Fatalf("contiguous frame rejected: %v", err)
	}
	if err := checkStreamSeq(10, 11, 3); err == nil {
		t.Fatal("gap accepted")
	}
	if err := checkStreamSeq(10, 9, 3); err == nil {
		t.Fatal("regression accepted")
	}
	if err := checkStreamSeq(10, 10, 0); err == nil {
		t.Fatal("empty frame accepted")
	}
}

func TestWALFrameEncodePanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown kind")
		}
	}()
	EncodeWALFrame(WALFrame{Kind: 0xEE})
}
