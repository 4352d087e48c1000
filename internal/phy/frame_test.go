package phy

import (
	"bytes"
	"testing"
	"testing/quick"
)

func testHeader(payloadLen int, chunkSize uint8) Header {
	return Header{
		Version:    ProtocolVersion,
		Type:       FrameData,
		Seq:        7,
		PayloadLen: uint16(payloadLen),
		Rate:       2,
		ChunkSize:  chunkSize,
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := testHeader(1500, 64)
	enc := h.AppendBinary(nil)
	if len(enc) != HeaderSize {
		t.Fatalf("encoded header = %d bytes", len(enc))
	}
	got, err := ParseHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: %+v != %+v", got, h)
	}
}

func TestHeaderCRCRejectsCorruption(t *testing.T) {
	enc := testHeader(100, 10).AppendBinary(nil)
	enc[2] ^= 0x01
	if _, err := ParseHeader(enc); err != ErrHeaderCRC {
		t.Fatalf("err = %v, want ErrHeaderCRC", err)
	}
}

func TestHeaderShort(t *testing.T) {
	if _, err := ParseHeader([]byte{1, 2}); err != ErrShortFrame {
		t.Fatalf("err = %v", err)
	}
}

func TestHeaderBadVersion(t *testing.T) {
	h := testHeader(10, 5)
	h.Version = 9
	enc := h.AppendBinary(nil)
	if _, err := ParseHeader(enc); err != ErrBadVersion {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestNumChunks(t *testing.T) {
	cases := []struct {
		payload int
		cs      uint8
		want    int
	}{
		{0, 16, 0},
		{1, 16, 1},
		{16, 16, 1},
		{17, 16, 2},
		{1500, 64, 24},
		{100, 0, 1}, // 0 = whole payload
	}
	for _, c := range cases {
		h := testHeader(c.payload, c.cs)
		if got := h.NumChunks(); got != c.want {
			t.Fatalf("NumChunks(%d, %d) = %d, want %d", c.payload, c.cs, got, c.want)
		}
	}
}

func TestBuildParseFrameClean(t *testing.T) {
	payload := []byte("the quick brown fox jumps over the lazy dog")
	h := testHeader(len(payload), 8)
	wire, err := BuildFrame(h, payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != h.WireSize() {
		t.Fatalf("wire size %d, want %d", len(wire), h.WireSize())
	}
	p, err := ParseFrame(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Fatal("payload mismatch")
	}
	if !p.FrameOK || !p.AllChunksOK() {
		t.Fatal("clean frame must validate")
	}
	if len(p.BadChunks()) != 0 {
		t.Fatal("clean frame has bad chunks")
	}
}

func TestParseFrameLocalisesCorruption(t *testing.T) {
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i)
	}
	h := testHeader(len(payload), 16) // 4 chunks
	wire, _ := BuildFrame(h, payload, nil)
	// Corrupt one byte inside chunk 2.
	s, _ := h.ChunkWireRange(2)
	wire[s+3] ^= 0xFF
	p, err := ParseFrame(wire)
	if err != nil {
		t.Fatal(err)
	}
	bad := p.BadChunks()
	if len(bad) != 1 || bad[0] != 2 {
		t.Fatalf("bad chunks = %v, want [2]", bad)
	}
	if p.FrameOK {
		t.Fatal("frame CRC must fail when a chunk is corrupted")
	}
	// Other chunks' data still delivered intact.
	if !bytes.Equal(p.Payload[:32], payload[:32]) {
		t.Fatal("good chunk data corrupted in parse")
	}
}

func TestChunkCRCBoundToSeqAndIndex(t *testing.T) {
	chunk := []byte{1, 2, 3}
	a := ChunkCRC(1, 0, chunk)
	b := ChunkCRC(2, 0, chunk)
	c := ChunkCRC(1, 1, chunk)
	if a == b || a == c {
		t.Fatal("chunk CRC must depend on sequence number and chunk index")
	}
}

func TestParseFrameShort(t *testing.T) {
	payload := []byte("hello world, this is a frame")
	h := testHeader(len(payload), 8)
	wire, _ := BuildFrame(h, payload, nil)
	if _, err := ParseFrame(wire[:len(wire)-3]); err != ErrShortFrame {
		t.Fatalf("err = %v, want ErrShortFrame", err)
	}
}

func TestBuildFrameRejectsOversizedPayload(t *testing.T) {
	if _, err := BuildFrame(Header{}, make([]byte, MaxPayload+1), nil); err != ErrPayloadSize {
		t.Fatalf("err = %v", err)
	}
}

func TestBuildFrameDefaultsVersion(t *testing.T) {
	wire, err := BuildFrame(Header{Type: FrameData, ChunkSize: 4}, []byte("abcd"), nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ParseFrame(wire)
	if err != nil {
		t.Fatal(err)
	}
	if p.Header.Version != ProtocolVersion {
		t.Fatal("BuildFrame must default the version")
	}
}

func TestEmptyPayloadFrame(t *testing.T) {
	h := testHeader(0, 16)
	wire, err := BuildFrame(h, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ParseFrame(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Payload) != 0 || !p.FrameOK || len(p.ChunkOK) != 0 {
		t.Fatalf("empty frame parse: %+v", p)
	}
}

func TestChunkRanges(t *testing.T) {
	h := testHeader(20, 8) // chunks: 8, 8, 4
	s0, e0 := h.ChunkPayloadRange(0)
	s2, e2 := h.ChunkPayloadRange(2)
	if s0 != 0 || e0 != 8 || s2 != 16 || e2 != 20 {
		t.Fatalf("payload ranges wrong: (%d,%d) (%d,%d)", s0, e0, s2, e2)
	}
	ws, we := h.ChunkWireRange(0)
	if ws != HeaderSize || we != HeaderSize+9 {
		t.Fatalf("wire range 0 = (%d,%d)", ws, we)
	}
	ws2, we2 := h.ChunkWireRange(2)
	if ws2 != HeaderSize+16+2 || we2 != HeaderSize+20+3 {
		t.Fatalf("wire range 2 = (%d,%d)", ws2, we2)
	}
}

func TestChunkRangePanics(t *testing.T) {
	h := testHeader(20, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.ChunkPayloadRange(3)
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(payload []byte, csRaw, seq uint8) bool {
		if len(payload) > 2048 {
			payload = payload[:2048]
		}
		cs := csRaw // 0 is legal (single chunk)
		h := Header{Type: FrameData, Seq: seq, ChunkSize: cs}
		wire, err := BuildFrame(h, payload, nil)
		if err != nil {
			return false
		}
		p, err := ParseFrame(wire)
		if err != nil {
			return false
		}
		return bytes.Equal(p.Payload, payload) && p.FrameOK && p.AllChunksOK()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: corrupting any single payload byte flags exactly the chunk
// containing it.
func TestCorruptionLocalisationProperty(t *testing.T) {
	f := func(seed uint16, posRaw uint16) bool {
		payload := make([]byte, 200)
		for i := range payload {
			payload[i] = byte(int(seed) + i)
		}
		h := testHeader(len(payload), 25) // 8 chunks
		wire, _ := BuildFrame(h, payload, nil)
		pos := int(posRaw) % len(payload)
		chunkIdx := pos / 25
		ws, _ := h.ChunkWireRange(chunkIdx)
		wire[ws+pos%25] ^= 0x55
		p, err := ParseFrame(wire)
		if err != nil {
			return false
		}
		bad := p.BadChunks()
		return len(bad) == 1 && bad[0] == chunkIdx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameTypeString(t *testing.T) {
	if FrameData.String() != "data" || FrameProbe.String() != "probe" ||
		FrameControl.String() != "control" || FrameType(9).String() == "" {
		t.Fatal("FrameType.String broken")
	}
}

func TestWireSizeFormula(t *testing.T) {
	h := testHeader(100, 30) // 4 chunks
	want := HeaderSize + 100 + 4 + FrameTrailerSize
	if h.WireSize() != want {
		t.Fatalf("WireSize = %d, want %d", h.WireSize(), want)
	}
}

// FuzzParseFrame feeds arbitrary bytes to the header and frame parsers,
// which must never panic and must size an accepted frame by its header.
// The same bytes, read as header fields plus a payload, must also
// survive a BuildFrame -> ParseFrame round trip intact.
func FuzzParseFrame(f *testing.F) {
	for _, c := range []struct {
		n  int
		cs uint8
	}{{0, 0}, {5, 0}, {40, 16}, {9, 1}} {
		wire, err := BuildFrame(testHeader(c.n, c.cs), bytes.Repeat([]byte{0xA5}, c.n), nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if h, err := ParseHeader(b); err == nil && h.Version != ProtocolVersion {
			t.Fatalf("ParseHeader accepted version %d", h.Version)
		}
		if p, err := ParseFrame(b); err == nil {
			if len(p.Payload) != int(p.Header.PayloadLen) {
				t.Fatalf("payload %d bytes, header says %d", len(p.Payload), p.Header.PayloadLen)
			}
			if len(p.ChunkOK) != p.Header.NumChunks() {
				t.Fatalf("%d chunk flags for %d chunks", len(p.ChunkOK), p.Header.NumChunks())
			}
		}

		if len(b) < 3 || len(b)-3 > MaxPayload {
			return
		}
		h := Header{Type: FrameType(b[0] & 0x0F), Seq: b[1], ChunkSize: b[2]}
		payload := b[3:]
		wire, err := BuildFrame(h, payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ParseFrame(wire)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if !bytes.Equal(p.Payload, payload) || !p.FrameOK || !p.AllChunksOK() {
			t.Fatalf("round trip: payload equal %v, FrameOK %v, bad chunks %v",
				bytes.Equal(p.Payload, payload), p.FrameOK, p.BadChunks())
		}
		if p.Header.Type != h.Type || p.Header.Seq != h.Seq || p.Header.ChunkSize != h.ChunkSize {
			t.Fatalf("round trip header %+v from %+v", p.Header, h)
		}
	})
}
