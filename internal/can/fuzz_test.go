package can

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// bitsFromBytes expands fuzz input into the bit-sequence domain of the
// codec. The first byte says how many trailing bits to drop (0-7) so the
// fuzzer can reach wire lengths that are not a multiple of eight.
func bitsFromBytes(data []byte) []bool {
	if len(data) == 0 {
		return nil
	}
	trim := int(data[0] % 8)
	bits := make([]bool, 0, 8*(len(data)-1))
	for _, b := range data[1:] {
		for i := 7; i >= 0; i-- {
			bits = append(bits, b>>uint(i)&1 == 1)
		}
	}
	if trim > len(bits) {
		trim = len(bits)
	}
	return bits[:len(bits)-trim]
}

// bytesFromBits inverts bitsFromBytes, for building seed corpus entries
// out of valid marshalled frames.
func bytesFromBits(bits []bool) []byte {
	pad := (8 - len(bits)%8) % 8
	out := []byte{byte(pad)}
	var cur byte
	n := 0
	for _, b := range bits {
		cur <<= 1
		if b {
			cur |= 1
		}
		n++
		if n == 8 {
			out = append(out, cur)
			cur, n = 0, 0
		}
	}
	if n > 0 {
		out = append(out, cur<<uint(8-n))
	}
	return out
}

// seedWire marshals a frame and encodes it for the fuzzer; panics only on
// programming errors in the seed set itself.
func seedWire(t *testing.F, f Frame) []byte {
	t.Helper()
	wire, err := Marshal(&f)
	if err != nil {
		t.Fatalf("seed frame invalid: %v", err)
	}
	return bytesFromBits(wire)
}

// FuzzUnmarshal drives the wire-format decoder with arbitrary bit
// sequences. Whatever comes in, Unmarshal must not panic; and anything it
// accepts must survive a Marshal/Unmarshal round trip as an equal frame
// (DLC 9-15 and remote-frame length quirks normalise on the first
// decode, so the law is checked from the decoded frame onward).
func FuzzUnmarshal(f *testing.F) {
	f.Add(seedWire(f, Frame{ID: 0x100, Data: []byte{1, 2, 3}}))
	f.Add(seedWire(f, Frame{ID: 0x1ABCDE, Extended: true, Data: []byte{0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4}}))
	f.Add(seedWire(f, Frame{ID: 0x7FF, Remote: true}))
	f.Add(seedWire(f, Frame{ID: 0, Data: nil}))
	f.Add([]byte{0x00, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		bits := bitsFromBytes(data)
		fr, err := Unmarshal(bits)
		if err != nil {
			if fr != nil {
				t.Fatal("Unmarshal returned a frame alongside an error")
			}
			return
		}
		if err := fr.Validate(); err != nil {
			t.Fatalf("Unmarshal accepted an invalid frame %v: %v", fr, err)
		}
		wire, err := Marshal(fr)
		if err != nil {
			t.Fatalf("re-Marshal of decoded frame %v failed: %v", fr, err)
		}
		back, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("round trip of decoded frame %v failed: %v", fr, err)
		}
		if !fr.Equal(back) {
			t.Fatalf("round trip changed the frame: %v -> %v", fr, back)
		}
	})
}

// FuzzFrameRoundtrip drives the encoder from the frame domain: any frame
// that validates as a classic frame must marshal, and the wire image must
// decode back to an equal frame. Single-bit corruption of the stuffed
// region must never yield a different accepted frame (CRC-15 catches all
// single-bit errors).
func FuzzFrameRoundtrip(f *testing.F) {
	f.Add(uint32(0x100), false, false, []byte{1, 2, 3})
	f.Add(uint32(0x1ABCDE), true, false, []byte{0xDE, 0xAD})
	f.Add(uint32(0x7FF), false, true, []byte{})
	f.Add(uint32(0), false, false, []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, id uint32, extended, remote bool, data []byte) {
		fr := &Frame{ID: ID(id), Extended: extended, Remote: remote, Data: data}
		if remote {
			fr.Data = nil // classic remote frames carry no payload
		}
		if fr.Validate() != nil {
			return
		}
		wire, err := Marshal(fr)
		if err != nil {
			t.Fatalf("Marshal rejected a valid frame %v: %v", fr, err)
		}
		back, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("Unmarshal rejected Marshal output for %v: %v", fr, err)
		}
		if !fr.Equal(back) {
			t.Fatalf("round trip changed the frame: %v -> %v", fr, back)
		}
		// Flip one bit in the stuffed region (SOF..CRC): the decoder must
		// reject or, at minimum, never silently return a different frame.
		flip := int(id) % (len(wire) - 10)
		mut := append([]bool(nil), wire...)
		mut[flip] = !mut[flip]
		got, err := Unmarshal(mut)
		if err == nil && !got.Equal(fr) {
			t.Fatalf("single-bit corruption at %d decoded to a different frame: %v -> %v", flip, fr, got)
		}
	})
}

// FuzzClassicWireBits checks the table-driven wire-bit counter of the
// bus timing path against the reference encoder on any valid classic
// frame: classicWireBits must equal WireLength and allocate nothing.
// The input decodes as b[0] flags (bit 0 extended, bit 1 remote), b[1:5]
// the big-endian identifier masked to 11 or 29 bits, and up to 8 data
// bytes from b[5:] (a remote frame's bytes set only its DLC); missing
// header bytes read as zero. The committed corpus covers the extreme
// identifiers, remote frames at DLC 0 and 8, the constant and
// alternating data patterns, and a stuffed run of five bits across the
// header→data and the data→CRC boundaries and at the end of the CRC.
func FuzzClassicWireBits(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		var hdr [5]byte
		copy(hdr[:], b)
		fr := Frame{Extended: hdr[0]&1 != 0, Remote: hdr[0]&2 != 0}
		id := ID(binary.BigEndian.Uint32(hdr[1:]))
		if fr.Extended {
			fr.ID = id & MaxExtendedID
		} else {
			fr.ID = id & MaxStandardID
		}
		if len(b) > 5 {
			fr.Data = b[5:min(len(b), 13)]
		}
		want, err := WireLength(&fr)
		if err != nil {
			t.Fatalf("WireLength rejected a valid frame %v: %v", &fr, err)
		}
		got, err := classicWireBits(&fr)
		if err != nil {
			t.Fatalf("classicWireBits rejected a valid frame %v: %v", &fr, err)
		}
		if got != want {
			t.Fatalf("classicWireBits(%v)=%d, WireLength=%d", &fr, got, want)
		}
		if allocs := testing.AllocsPerRun(10, func() { _, _ = classicWireBits(&fr) }); allocs != 0 {
			t.Fatalf("classicWireBits(%v) allocates %v per call, want 0", &fr, allocs)
		}
	})
}

// FuzzTraceRoundtrip exercises the text trace parser (traceio.go) with
// arbitrary input. Whatever ParseTrace accepts must re-serialise through
// WriteTrace into a trace that parses back with the same frames.
func FuzzTraceRoundtrip(f *testing.F) {
	f.Add([]byte("0.010000 engine 0C0 DEADBEEF\n"))
	f.Add([]byte("1.200000 atk 1FFFFFFF - EXT\n# comment\n\n"))
	f.Add([]byte("0.5 gw 100 0102030405060708 FD,BRS\n"))
	f.Add([]byte("0.25 x 7FF - RTR,ERR\n"))
	f.Add([]byte("not a trace\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ParseTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			t.Fatalf("WriteTrace failed on a parsed trace: %v", err)
		}
		back, err := ParseTrace(&buf)
		if err != nil {
			t.Fatalf("re-parse of written trace failed: %v\n%s", err, buf.String())
		}
		if len(back.Records) != len(tr.Records) {
			t.Fatalf("round trip changed record count: %d -> %d", len(tr.Records), len(back.Records))
		}
		for i := range tr.Records {
			a, b := tr.Records[i], back.Records[i]
			if !a.Frame.Equal(&b.Frame) || a.Corrupted != b.Corrupted {
				t.Fatalf("record %d changed in round trip:\n%+v\n%+v", i, a, b)
			}
		}
	})
}
