package can

import (
	"errors"
	"fmt"
)

// This file implements the physical-layer view of a frame that the timing
// and fault models need: the bit sequence on the wire, CRC-15, and bit
// stuffing. The bus simulation uses BitLength for transmission timing; the
// codec round trip is also exercised directly by fault-injection tests
// (single-bit corruption must be caught by the CRC).

// crc15Poly is the CAN CRC polynomial x^15+x^14+x^10+x^8+x^7+x^4+x^3+1.
const crc15Poly = 0x4599

// CRC15 computes the CAN 15-bit CRC over a bit sequence (booleans, MSB
// first), as specified in ISO 11898-1.
func CRC15(bits []bool) uint16 {
	var crc uint16
	for _, b := range bits {
		bit := uint16(0)
		if b {
			bit = 1
		}
		crc = crc15Step(crc, bit)
	}
	return crc
}

// crc15Step feeds one bit (0 or 1) into a 15-bit CRC register.
func crc15Step(crc, bit uint16) uint16 {
	next := bit ^ crc>>14
	crc = crc << 1 & 0x7FFF
	if next == 1 {
		crc ^= crc15Poly
	}
	return crc
}

// Stuff inserts a complement bit after every run of five identical bits,
// per the CAN bit-stuffing rule. The input covers SOF through the CRC
// sequence; later fields (CRC delimiter, ACK, EOF) are not stuffed.
func Stuff(bits []bool) []bool {
	out := make([]bool, 0, len(bits)+len(bits)/5)
	run := 0
	var last bool
	for i, b := range bits {
		if i > 0 && b == last {
			run++
		} else {
			run = 1
		}
		out = append(out, b)
		last = b
		if run == 5 {
			out = append(out, !b)
			last = !b
			run = 1
		}
	}
	return out
}

// ErrStuffViolation is returned by Unstuff when six identical consecutive
// bits appear in a stuffed region — the on-wire signature of a stuff error.
var ErrStuffViolation = errors.New("can: bit stuffing violation")

// Unstuff removes stuff bits, returning the original sequence. It fails
// with ErrStuffViolation if a run of six identical bits is found.
func Unstuff(bits []bool) ([]bool, error) {
	out := make([]bool, 0, len(bits))
	run := 0
	var last bool
	skip := false
	for i, b := range bits {
		if skip {
			// This is the stuff bit: must be the complement of the run.
			if b == last {
				return nil, ErrStuffViolation
			}
			skip = false
			run = 1
			last = b
			continue
		}
		if i > 0 && b == last {
			run++
		} else {
			run = 1
		}
		if run > 5 {
			return nil, ErrStuffViolation
		}
		out = append(out, b)
		last = b
		if run == 5 {
			skip = true
		}
	}
	return out, nil
}

// appendBits appends the low n bits of v, MSB first.
func appendBits(dst []bool, v uint64, n int) []bool {
	for i := n - 1; i >= 0; i-- {
		dst = append(dst, v>>uint(i)&1 == 1)
	}
	return dst
}

// bitsToUint packs up to 64 bits (MSB first) into an integer.
func bitsToUint(bits []bool) uint64 {
	var v uint64
	for _, b := range bits {
		v <<= 1
		if b {
			v |= 1
		}
	}
	return v
}

// headerBits returns the frame fields from SOF through the data field —
// the region covered by the CRC and subject to stuffing. Classic CAN only;
// the FD field layout differs but its timing is handled analytically in
// BitLength.
func headerBits(f *Frame) ([]bool, error) {
	if f.FD {
		return nil, errors.New("can: bit-level codec models classic frames only")
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	bits := make([]bool, 0, 90)
	bits = append(bits, false) // SOF (dominant)
	if !f.Extended {
		bits = appendBits(bits, uint64(f.ID), 11)
		bits = append(bits, f.Remote) // RTR
		bits = append(bits, false)    // IDE = standard
		bits = append(bits, false)    // r0
	} else {
		bits = appendBits(bits, uint64(f.ID>>18), 11) // base ID
		bits = append(bits, true)                     // SRR (recessive)
		bits = append(bits, true)                     // IDE = extended
		bits = appendBits(bits, uint64(f.ID)&0x3FFFF, 18)
		bits = append(bits, f.Remote) // RTR
		bits = append(bits, false)    // r1
		bits = append(bits, false)    // r0
	}
	bits = appendBits(bits, uint64(f.DLC()), 4)
	if !f.Remote {
		for _, b := range f.Data {
			bits = appendBits(bits, uint64(b), 8)
		}
	}
	return bits, nil
}

// Marshal encodes a classic CAN frame into its stuffed on-wire bit
// sequence: SOF..data (stuffed, with CRC included in the stuffed region),
// then CRC delimiter, ACK slot, ACK delimiter and 7 EOF bits.
func Marshal(f *Frame) ([]bool, error) {
	body, err := headerBits(f)
	if err != nil {
		return nil, err
	}
	crc := CRC15(body)
	withCRC := appendBits(append([]bool(nil), body...), uint64(crc), 15)
	wire := Stuff(withCRC)
	wire = append(wire, true)  // CRC delimiter
	wire = append(wire, false) // ACK slot (dominant: acknowledged)
	wire = append(wire, true)  // ACK delimiter
	for i := 0; i < 7; i++ {
		wire = append(wire, true) // EOF
	}
	return wire, nil
}

// Unmarshal decodes a stuffed on-wire bit sequence back into a frame,
// verifying the CRC. It accepts exactly the output format of Marshal.
var (
	ErrTruncated = errors.New("can: truncated frame")
	ErrCRC       = errors.New("can: CRC mismatch")
	ErrForm      = errors.New("can: form error")
	ErrAck       = errors.New("can: ACK error (recessive ACK slot)")
)

func Unmarshal(wire []bool) (*Frame, error) {
	// The trailing 10 bits (delim, ack, delim, 7×EOF) are unstuffed.
	if len(wire) < 10 {
		return nil, ErrTruncated
	}
	tail := wire[len(wire)-10:]
	if !tail[0] || !tail[2] {
		return nil, fmt.Errorf("%w: bad delimiter", ErrForm)
	}
	if tail[1] {
		return nil, ErrAck
	}
	for _, b := range tail[3:] {
		if !b {
			return nil, fmt.Errorf("%w: dominant bit in EOF", ErrForm)
		}
	}
	stuffed := wire[:len(wire)-10]
	raw, err := Unstuff(stuffed)
	if err != nil {
		return nil, err
	}
	if len(raw) < 1+11+1+1+1+4+15 {
		return nil, ErrTruncated
	}
	if raw[0] {
		return nil, fmt.Errorf("%w: recessive SOF", ErrForm)
	}
	pos := 1
	baseID := bitsToUint(raw[pos : pos+11])
	pos += 11
	f := &Frame{}
	rtrOrSRR := raw[pos]
	pos++
	ide := raw[pos]
	pos++
	if !ide {
		f.ID = ID(baseID)
		f.Remote = rtrOrSRR
		pos++ // r0
	} else {
		f.Extended = true
		if len(raw) < pos+18+1+2+4+15 {
			return nil, ErrTruncated
		}
		ext := bitsToUint(raw[pos : pos+18])
		pos += 18
		f.ID = ID(baseID<<18 | ext)
		f.Remote = raw[pos]
		pos++
		pos += 2 // r1, r0
	}
	dlc := int(bitsToUint(raw[pos : pos+4]))
	pos += 4
	dataLen := dlc
	if dataLen > 8 {
		dataLen = 8 // DLC 9-15 means 8 bytes in classic CAN
	}
	if f.Remote {
		dataLen = 0
	}
	if len(raw) < pos+8*dataLen+15 {
		return nil, ErrTruncated
	}
	for i := 0; i < dataLen; i++ {
		f.Data = append(f.Data, byte(bitsToUint(raw[pos:pos+8])))
		pos += 8
	}
	gotCRC := uint16(bitsToUint(raw[pos : pos+15]))
	if want := CRC15(raw[:pos]); gotCRC != want {
		return nil, fmt.Errorf("%w: got %#x want %#x", ErrCRC, gotCRC, want)
	}
	return f, nil
}

// WireLength returns the exact number of bits Marshal would put on the
// wire for a classic frame, plus the 3-bit interframe space.
func WireLength(f *Frame) (int, error) {
	wire, err := Marshal(f)
	if err != nil {
		return 0, err
	}
	return len(wire) + 3, nil
}

// The bus timing hot path counts a classic frame's wire bits without
// materializing them. classicWireBits streams SOF..data through a shift
// register a byte at a time: crc15Table advances the CRC-15 and
// stuffTable the stuffing run. The at most 7 bits left over enter the CRC
// one at a time (crc15Step). They are then stuffed together with the
// 15-bit CRC sequence, whole bytes through stuffTable and the last few
// bits one at a time (stuffStep). Marshal remains the reference
// bit-level encoder; TestClassicWireBitsMatchesMarshal and
// FuzzClassicWireBits pin the two together.

// crc15Table[v] is the CRC-15 register after feeding byte v, MSB first,
// into a zero register. The CRC is linear, so feeding v into a register
// crc gives crc<<8 (15 bits) xor crc15Table[crc>>7 xor v].
var crc15Table = func() (t [256]uint16) {
	for v := range t {
		var crc uint16
		for i := 7; i >= 0; i-- {
			crc = crc15Step(crc, uint16(v>>i)&1)
		}
		t[v] = crc
	}
	return t
}()

// stuffState is the bit-stuffing state between two bits: stuffStart
// before the first bit, otherwise 1 + 4*last + (run-1) for the last bit
// sent and the length (1–4) of the run of identical bits it ends. A run
// never rests at 5: its fifth bit is followed by a complement stuff bit,
// which starts a run of 1.
type stuffState uint8

const stuffStart stuffState = 0

// stuffStep advances s by one bit b (0 or 1) and returns the stuff bits
// that follow it (0 or 1).
func stuffStep(s stuffState, b uint8) (stuffState, int) {
	run := uint8(1)
	if s != stuffStart && uint8(s-1)>>2 == b {
		run = uint8(s-1)&3 + 2
	}
	if run == 5 {
		return stuffState(1 + (b^1)<<2), 1
	}
	return stuffState(1 + b<<2 + run - 1), 0
}

// stuffEntry is stuffStep applied to the eight bits of one byte.
type stuffEntry struct {
	next    stuffState
	stuffed uint8 // stuff bits inserted within the byte (0–2)
}

// stuffTable[s][v] advances state s by byte v, MSB first.
var stuffTable = func() (t [9][256]stuffEntry) {
	for s := range t {
		for v := range t[s] {
			st, n := stuffState(s), 0
			for i := 7; i >= 0; i-- {
				var k int
				st, k = stuffStep(st, uint8(v>>i)&1)
				n += k
			}
			t[s][v] = stuffEntry{next: st, stuffed: uint8(n)}
		}
	}
	return t
}()

// classicWireBits returns exactly what WireLength returns for a valid
// classic frame — stuffed SOF..CRC region, 10 tail bits (CRC delimiter,
// ACK slot, ACK delimiter, 7×EOF) and the 3-bit interframe space — with
// no allocation.
func classicWireBits(f *Frame) (int, error) {
	if f.FD {
		return 0, errors.New("can: bit-level codec models classic frames only")
	}
	if err := f.Validate(); err != nil {
		return 0, err
	}
	rtr := uint64(0)
	if f.Remote {
		rtr = 1
	}
	// reg is a shift register of wire bits, MSB first, starting with
	// SOF..DLC; its low n bits are not counted yet.
	var reg uint64
	var n uint
	if !f.Extended {
		// SOF, ID(11), RTR, IDE=0, r0, DLC(4).
		reg, n = uint64(f.ID)<<7|rtr<<6|uint64(f.DLC()), 19
	} else {
		// SOF, base ID(11), SRR=1, IDE=1, ID extension(18), RTR, r1, r0, DLC(4).
		reg = uint64(f.ID>>18)<<27 | 3<<25 | (uint64(f.ID)&0x3FFFF)<<7 | rtr<<6 | uint64(f.DLC())
		n = 39
	}
	var crc uint16
	s := stuffStart
	bits := 0
	stuff := func(v uint8) {
		e := stuffTable[s][v]
		s = e.next
		bits += 8 + int(e.stuffed)
	}
	feed := func(v uint8) {
		crc = crc<<8&0x7FFF ^ crc15Table[uint8(crc>>7)^v]
		stuff(v)
	}
	for ; n >= 8; n -= 8 {
		feed(uint8(reg >> (n - 8)))
	}
	if !f.Remote {
		for _, b := range f.Data {
			reg = reg<<8 | uint64(b)
			feed(uint8(reg >> n))
		}
	}
	// The leftover bits enter the CRC one at a time; then they and the
	// CRC sequence are stuffed, whole bytes through the table.
	for i := n; i > 0; i-- {
		crc = crc15Step(crc, uint16(reg>>(i-1))&1)
	}
	reg, n = reg<<15|uint64(crc), n+15
	for ; n >= 8; n -= 8 {
		stuff(uint8(reg >> (n - 8)))
	}
	for ; n > 0; n-- {
		var k int
		s, k = stuffStep(s, uint8(reg>>(n-1))&1)
		bits += 1 + k
	}
	return bits + 10 + 3, nil
}

// BitLength estimates on-wire bits for timing purposes, handling both
// classic and FD frames. For classic frames it is exact (same as
// WireLength). For FD frames it uses the standard field sizes with a
// conservative stuffing estimate, returning arbitration-phase and
// data-phase bit counts separately so the bus can apply two bitrates.
func BitLength(f *Frame) (arbBits, dataBits int, err error) {
	if !f.FD {
		n, err := classicWireBits(f)
		return n, 0, err
	}
	if err := f.Validate(); err != nil {
		return 0, 0, err
	}
	// Arbitration phase: SOF + ID (+SRR/IDE for ext) + control up to BRS.
	arb := 1 + 11 + 3
	if f.Extended {
		arb += 2 + 18
	}
	// Data phase (after BRS): ESI + DLC + data + stuff-count + CRC(17/21) +
	// fixed stuff bits. Then back at nominal rate: CRC delim, ACK, EOF, IFS.
	crcLen := 17
	if len(f.Data) > 16 {
		crcLen = 21
	}
	data := 1 + 4 + 8*len(f.Data) + 4 + crcLen
	// Dynamic stuffing applies through the data field (~1 in 5 worst case,
	// ~1 in 8 typical); use the deterministic pessimistic bound /5 so the
	// timing model never underestimates load.
	arb += arb / 5
	data += data / 5
	tail := 1 + 1 + 1 + 7 + 3
	if !f.BRS {
		// Whole frame at nominal rate.
		return arb + data + tail, 0, nil
	}
	return arb + tail, data, nil
}
