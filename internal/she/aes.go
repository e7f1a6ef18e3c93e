package she

import (
	"encoding/binary"
	"math/bits"
)

// This file is the package's AES-128 (FIPS-197): the T-table algorithm of
// Go's generic crypto/aes fallback, with the key schedule held in a value
// the caller declares, so expanding a key allocates nothing.

// rounds is the number of AES-128 rounds; a schedule has one more round
// key than that, of 4 words each.
const rounds = 10

// block is an expanded AES-128 key: the encryption schedule and, once
// invert has run, the inverse cipher's schedule.
type block struct {
	enc [4 * (rounds + 1)]uint32
	dec [4 * (rounds + 1)]uint32
}

// The cipher's tables, built from the FIPS-197 definitions by aesTables.
// te[0][x] is the MixColumns column (2s, s, s, 3s) of s = sbox[x], and
// td[0][x] is the InvMixColumns column (14s, 9s, 13s, 11s) of
// s = invSbox[x]; te[k] and td[k] are those words rotated right by 8k
// bits. They are package-level initializers, not an init function,
// because zeroChain's initializer expands a key with them.
var sbox, invSbox, te, td = aesTables()

// xtime multiplies a by x in GF(2^8) modulo x⁸ + x⁴ + x³ + x + 1.
func xtime(a byte) byte { return a<<1 ^ (a>>7)*0x1b }

// gmul multiplies a by b in GF(2^8).
func gmul(a, b byte) byte {
	var p byte
	for ; b != 0; b >>= 1 {
		if b&1 != 0 {
			p ^= a
		}
		a = xtime(a)
	}
	return p
}

// aesTables builds the S-box, its inverse and the T-tables. The S-box maps
// x to the affine transform of its multiplicative inverse, which is read
// off the powers of the generator 3.
func aesTables() (s, inv [256]byte, e, d [4][256]uint32) {
	var exp [255]byte
	var log [256]byte
	for i, x := 0, byte(1); i < len(exp); i++ {
		exp[i], log[x] = x, byte(i)
		x ^= xtime(x)
	}
	for x := range s {
		var b byte // 0 has no inverse and maps to 0
		if x != 0 {
			b = exp[(255-int(log[x]))%255]
		}
		v := b ^ bits.RotateLeft8(b, 1) ^ bits.RotateLeft8(b, 2) ^
			bits.RotateLeft8(b, 3) ^ bits.RotateLeft8(b, 4) ^ 0x63
		s[x], inv[v] = v, byte(x)
	}
	for x := range e[0] {
		v := s[x]
		e[0][x] = uint32(gmul(v, 2))<<24 | uint32(v)<<16 | uint32(v)<<8 | uint32(gmul(v, 3))
		v = inv[x]
		d[0][x] = uint32(gmul(v, 14))<<24 | uint32(gmul(v, 9))<<16 | uint32(gmul(v, 13))<<8 | uint32(gmul(v, 11))
		for k := 1; k < 4; k++ {
			e[k][x] = bits.RotateLeft32(e[0][x], -8*k)
			d[k][x] = bits.RotateLeft32(d[0][x], -8*k)
		}
	}
	return s, inv, e, d
}

// subWord applies the S-box to each byte of w.
func subWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 | uint32(sbox[uint8(w>>16)])<<16 |
		uint32(sbox[uint8(w>>8)])<<8 | uint32(sbox[uint8(w)])
}

// onExpand, when a test sets it, runs at every AES key expansion.
var onExpand func()

// expand writes key's encryption schedule into c (FIPS-197 §5.2). Every
// key schedule the package builds comes from here.
func (c *block) expand(key *[BlockSize]byte) {
	if onExpand != nil {
		onExpand()
	}
	w0 := binary.BigEndian.Uint32(key[0:4])
	w1 := binary.BigEndian.Uint32(key[4:8])
	w2 := binary.BigEndian.Uint32(key[8:12])
	w3 := binary.BigEndian.Uint32(key[12:16])
	c.enc[0], c.enc[1], c.enc[2], c.enc[3] = w0, w1, w2, w3
	rcon := byte(1)
	for r := 4; r < len(c.enc); r += 4 {
		w0 ^= subWord(bits.RotateLeft32(w3, 8)) ^ uint32(rcon)<<24
		w1 ^= w0
		w2 ^= w1
		w3 ^= w2
		c.enc[r], c.enc[r+1], c.enc[r+2], c.enc[r+3] = w0, w1, w2, w3
		rcon = xtime(rcon)
	}
}

// invert derives c's inverse-cipher schedule from its encryption
// schedule: the round keys in reverse order, all but the first and last
// through InvMixColumns (FIPS-197 §5.3.5). The decrypting commands call
// it after expand.
func (c *block) invert() {
	n := len(c.enc)
	for i := 0; i < n; i += 4 {
		for j := 0; j < 4; j++ {
			w := c.enc[n-4-i+j]
			if i > 0 && i+4 < n {
				w = td[0][sbox[w>>24]] ^ td[1][sbox[uint8(w>>16)]] ^
					td[2][sbox[uint8(w>>8)]] ^ td[3][sbox[uint8(w)]]
			}
			c.dec[i+j] = w
		}
	}
}

// encrypt enciphers one block from src into dst, which may be src.
func (c *block) encrypt(dst, src *[BlockSize]byte) {
	k := &c.enc
	s0 := binary.BigEndian.Uint32(src[0:4]) ^ k[0]
	s1 := binary.BigEndian.Uint32(src[4:8]) ^ k[1]
	s2 := binary.BigEndian.Uint32(src[8:12]) ^ k[2]
	s3 := binary.BigEndian.Uint32(src[12:16]) ^ k[3]
	for r := 4; r < 4*rounds; r += 4 {
		s0, s1, s2, s3 =
			k[r+0]^te[0][s0>>24]^te[1][uint8(s1>>16)]^te[2][uint8(s2>>8)]^te[3][uint8(s3)],
			k[r+1]^te[0][s1>>24]^te[1][uint8(s2>>16)]^te[2][uint8(s3>>8)]^te[3][uint8(s0)],
			k[r+2]^te[0][s2>>24]^te[1][uint8(s3>>16)]^te[2][uint8(s0>>8)]^te[3][uint8(s1)],
			k[r+3]^te[0][s3>>24]^te[1][uint8(s0>>16)]^te[2][uint8(s1>>8)]^te[3][uint8(s2)]
	}
	// The last round has no MixColumns: SubBytes and ShiftRows only.
	r := 4 * rounds
	binary.BigEndian.PutUint32(dst[0:4], k[r+0]^lastRound(&sbox, s0, s1, s2, s3))
	binary.BigEndian.PutUint32(dst[4:8], k[r+1]^lastRound(&sbox, s1, s2, s3, s0))
	binary.BigEndian.PutUint32(dst[8:12], k[r+2]^lastRound(&sbox, s2, s3, s0, s1))
	binary.BigEndian.PutUint32(dst[12:16], k[r+3]^lastRound(&sbox, s3, s0, s1, s2))
}

// decrypt deciphers one block from src into dst, which may be src, with
// the schedule invert derived.
func (c *block) decrypt(dst, src *[BlockSize]byte) {
	k := &c.dec
	s0 := binary.BigEndian.Uint32(src[0:4]) ^ k[0]
	s1 := binary.BigEndian.Uint32(src[4:8]) ^ k[1]
	s2 := binary.BigEndian.Uint32(src[8:12]) ^ k[2]
	s3 := binary.BigEndian.Uint32(src[12:16]) ^ k[3]
	for r := 4; r < 4*rounds; r += 4 {
		s0, s1, s2, s3 =
			k[r+0]^td[0][s0>>24]^td[1][uint8(s3>>16)]^td[2][uint8(s2>>8)]^td[3][uint8(s1)],
			k[r+1]^td[0][s1>>24]^td[1][uint8(s0>>16)]^td[2][uint8(s3>>8)]^td[3][uint8(s2)],
			k[r+2]^td[0][s2>>24]^td[1][uint8(s1>>16)]^td[2][uint8(s0>>8)]^td[3][uint8(s3)],
			k[r+3]^td[0][s3>>24]^td[1][uint8(s2>>16)]^td[2][uint8(s1>>8)]^td[3][uint8(s0)]
	}
	r := 4 * rounds
	binary.BigEndian.PutUint32(dst[0:4], k[r+0]^lastRound(&invSbox, s0, s3, s2, s1))
	binary.BigEndian.PutUint32(dst[4:8], k[r+1]^lastRound(&invSbox, s1, s0, s3, s2))
	binary.BigEndian.PutUint32(dst[8:12], k[r+2]^lastRound(&invSbox, s2, s1, s0, s3))
	binary.BigEndian.PutUint32(dst[12:16], k[r+3]^lastRound(&invSbox, s3, s2, s1, s0))
}

// lastRound is one output word of the final round: box applied to the
// top byte of a, the second of b, the third of c and the low byte of d.
func lastRound(box *[256]byte, a, b, c, d uint32) uint32 {
	return uint32(box[a>>24])<<24 | uint32(box[uint8(b>>16)])<<16 |
		uint32(box[uint8(c>>8)])<<8 | uint32(box[uint8(d)])
}
