// Package she models the Secure Hardware Extension (SHE) specification
// used by the paper's Secure Processing layer: AES-128 key slots with
// write/boot/debugger protection flags, the M1–M5 memory-update protocol
// for in-field key provisioning, CMAC generation/verification, and secure
// boot.
//
// SHE is implemented as a protocol-and-state-machine model rather than
// silicon: every security property exercised by the experiments (write
// protection, update counters, boot protection, key derivation) is a
// property of the protocol, which is reproduced faithfully from the SHE
// 1.1 functional specification.
//
// The AES-128 under every command is the package's own (aes.go): a
// table-based, variable-time cipher, the algorithm crypto/aes itself
// falls back to on CPUs without AES instructions, whose key schedules
// are values on the caller's stack. Its timing is not a modelled
// property: the keys it protects are simulated, and side channels are
// modelled through the Engine's Leak tap instead.
package she

import (
	"crypto/subtle"
	"errors"
)

// BlockSize is the AES block size in bytes; all SHE keys are 128-bit.
const BlockSize = 16

// zeroBlock is the all-zero block, only ever read: the memory-update
// protocol's CBC IV and the KDF's first chaining value.
var zeroBlock [BlockSize]byte

// zeroChain is the schedule under the all-zero chaining value that keys
// every KDF's first compression. It is expanded once, at package
// initialization, and only read afterwards, so any number of goroutines
// may share it.
var zeroChain = func() (c block) {
	c.expand(&zeroBlock)
	return c
}()

// cmacSubkeys derives the RFC 4493 subkeys K1, K2 with c, the schedule of
// the MAC key.
func cmacSubkeys(c *block) (k1, k2 [BlockSize]byte) {
	var l [BlockSize]byte
	c.encrypt(&l, &l)
	k1 = dbl(l)
	k2 = dbl(k1)
	return k1, k2
}

// dbl doubles a value in GF(2^128) with the CMAC reduction constant 0x87.
func dbl(in [BlockSize]byte) [BlockSize]byte {
	var out [BlockSize]byte
	carry := byte(0)
	for i := BlockSize - 1; i >= 0; i-- {
		out[i] = in[i]<<1 | carry
		carry = in[i] >> 7
	}
	if carry == 1 {
		out[BlockSize-1] ^= 0x87
	}
	return out
}

// cmacInto computes AES-CMAC (RFC 4493) of msg under c into x, which is
// also the chaining state. One key schedule serves both the subkeys and
// the MAC.
func cmacInto(c *block, x *[BlockSize]byte, msg []byte) {
	k1, k2 := cmacSubkeys(c)

	n := (len(msg) + BlockSize - 1) / BlockSize
	complete := n > 0 && len(msg)%BlockSize == 0
	if n == 0 {
		n = 1
	}

	var last [BlockSize]byte
	rem := msg[(n-1)*BlockSize:]
	copy(last[:], rem)
	if complete {
		for i := range last {
			last[i] ^= k1[i]
		}
	} else {
		last[len(rem)] = 0x80
		for i := range last {
			last[i] ^= k2[i]
		}
	}

	*x = zeroBlock
	for i := 0; i < n-1; i++ {
		for j := 0; j < BlockSize; j++ {
			x[j] ^= msg[i*BlockSize+j]
		}
		c.encrypt(x, x)
	}
	for j := 0; j < BlockSize; j++ {
		x[j] ^= last[j]
	}
	c.encrypt(x, x)
}

// CMAC computes AES-CMAC (RFC 4493) of msg under a 128-bit key.
func CMAC(key, msg []byte) ([]byte, error) {
	if len(key) != BlockSize {
		return nil, errors.New("she: CMAC requires a 128-bit key")
	}
	var c block
	c.expand((*[BlockSize]byte)(key))
	out := make([]byte, BlockSize)
	cmacInto(&c, (*[BlockSize]byte)(out), msg)
	return out, nil
}

// VerifyCMAC checks a (possibly truncated) CMAC in constant time.
// macBits must be a multiple of 8 between 8 and 128; SHE permits
// truncated verification down to the configured minimum.
func VerifyCMAC(key, msg, mac []byte, macBits int) (bool, error) {
	if macBits < 8 || macBits > 128 || macBits%8 != 0 {
		return false, errors.New("she: MAC length must be 8..128 bits, byte aligned")
	}
	want, err := CMAC(key, msg)
	if err != nil {
		return false, err
	}
	n := macBits / 8
	if len(mac) < n {
		return false, nil
	}
	return subtle.ConstantTimeCompare(want[:n], mac[:n]) == 1, nil
}

// encryptECB encrypts whole blocks in ECB mode (CMD_ENC_ECB).
func encryptECB(key *[BlockSize]byte, in []byte) ([]byte, error) {
	if len(in)%BlockSize != 0 {
		return nil, errors.New("she: ECB input not block aligned")
	}
	var c block
	c.expand(key)
	out := make([]byte, len(in))
	for i := 0; i < len(in); i += BlockSize {
		c.encrypt((*[BlockSize]byte)(out[i:]), (*[BlockSize]byte)(in[i:]))
	}
	return out, nil
}

// decryptECB inverts encryptECB (used by the M4 proof check).
func decryptECB(key *[BlockSize]byte, in []byte) ([]byte, error) {
	if len(in)%BlockSize != 0 {
		return nil, errors.New("she: ECB input not block aligned")
	}
	var c block
	c.expand(key)
	c.invert()
	out := make([]byte, len(in))
	for i := 0; i < len(in); i += BlockSize {
		c.decrypt((*[BlockSize]byte)(out[i:]), (*[BlockSize]byte)(in[i:]))
	}
	return out, nil
}

// cbcEncrypt encrypts the whole blocks of src into dst in CBC mode under
// c, chaining from iv. dst may be src.
func cbcEncrypt(c *block, iv, dst, src []byte) {
	prev := iv
	for i := 0; i < len(src); i += BlockSize {
		b := (*[BlockSize]byte)(dst[i:])
		for j := range b {
			b[j] = src[i+j] ^ prev[j]
		}
		c.encrypt(b, b)
		prev = b[:]
	}
}

// cbcDecrypt inverts cbcEncrypt; c's inverse schedule must be filled. dst
// must not overlap src: each block's ciphertext chains into the next.
func cbcDecrypt(c *block, iv, dst, src []byte) {
	prev := iv
	for i := 0; i < len(src); i += BlockSize {
		b := (*[BlockSize]byte)(dst[i:])
		c.decrypt(b, (*[BlockSize]byte)(src[i:]))
		for j := range b {
			b[j] ^= prev[j]
		}
		prev = src[i : i+BlockSize]
	}
}

// checkCBC validates a CBC command's input and IV lengths.
func checkCBC(iv, in []byte) error {
	if len(in)%BlockSize != 0 {
		return errors.New("she: CBC input not block aligned")
	}
	if len(iv) != BlockSize {
		return errors.New("she: CBC IV must be one block")
	}
	return nil
}

// encryptCBC encrypts whole blocks in CBC mode with the caller's IV
// (CMD_ENC_CBC).
func encryptCBC(key *[BlockSize]byte, iv, in []byte) ([]byte, error) {
	if err := checkCBC(iv, in); err != nil {
		return nil, err
	}
	var c block
	c.expand(key)
	out := make([]byte, len(in))
	cbcEncrypt(&c, iv, out, in)
	return out, nil
}

// decryptCBC inverts encryptCBC (CMD_DEC_CBC).
func decryptCBC(key *[BlockSize]byte, iv, in []byte) ([]byte, error) {
	if err := checkCBC(iv, in); err != nil {
		return nil, err
	}
	var c block
	c.expand(key)
	c.invert()
	out := make([]byte, len(in))
	cbcDecrypt(&c, iv, out, in)
	return out, nil
}

// kdfCipher runs the KDF's first Miyaguchi-Preneel compression, whose
// chaining value is always zero, under the shared zeroChain schedule. It
// returns the compression's output, the chaining value of the second
// compression, and expands it into c.
func kdfCipher(key [BlockSize]byte, c *block) (chain [BlockSize]byte) {
	chain = mpCompress(&zeroChain, zeroBlock, key)
	c.expand(&chain)
	return chain
}

// mpCompress is the Miyaguchi-Preneel compression function over AES-128,
// out = AES(chain, m) XOR m XOR chain, with c the schedule of chain.
func mpCompress(c *block, chain, m [BlockSize]byte) (out [BlockSize]byte) {
	c.encrypt(&out, &m)
	for i := range out {
		out[i] ^= m[i] ^ chain[i]
	}
	return out
}

// KDF is the SHE key-derivation function: Miyaguchi-Preneel over the
// concatenation key || constant, starting from a zero chaining value.
func KDF(key [BlockSize]byte, constant [BlockSize]byte) [BlockSize]byte {
	var c block
	chain := kdfCipher(key, &c)
	return mpCompress(&c, chain, constant)
}

// kdfPair derives the memory-update protocol's key pair from key:
// enc = KDF(key, KeyUpdateEncC) and mac = KDF(key, KeyUpdateMacC). Both
// start with the same compression of key, so they share its output and
// the one key schedule their second compressions run under.
func kdfPair(key [BlockSize]byte) (enc, mac [BlockSize]byte) {
	var c block
	chain := kdfCipher(key, &c)
	return mpCompress(&c, chain, KeyUpdateEncC), mpCompress(&c, chain, KeyUpdateMacC)
}

// SHE derivation constants (SHE spec v1.1 §9.2). The embedded bytes spell
// "SHE" (0x53 0x48 0x45) with the algorithm/version framing around them.
var (
	KeyUpdateEncC = [BlockSize]byte{0x01, 0x01, 0x53, 0x48, 0x45, 0x00, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xB0}
	KeyUpdateMacC = [BlockSize]byte{0x01, 0x02, 0x53, 0x48, 0x45, 0x00, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xB0}
	DebugKeyC     = [BlockSize]byte{0x01, 0x03, 0x53, 0x48, 0x45, 0x00, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xB0}
	PrngKeyC      = [BlockSize]byte{0x01, 0x04, 0x53, 0x48, 0x45, 0x00, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xB0}
	PrngSeedKeyC  = [BlockSize]byte{0x01, 0x05, 0x53, 0x48, 0x45, 0x00, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xB0}
)
