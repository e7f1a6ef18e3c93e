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
package she

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"errors"
)

// BlockSize is the AES block size in bytes; all SHE keys are 128-bit.
const BlockSize = 16

// zeroBlock is the all-zero block, only ever read: the memory-update
// protocol's CBC IV and the KDF's first chaining value.
var zeroBlock [BlockSize]byte

// onExpand, when a test sets it, runs at every AES key expansion.
var onExpand func()

// expand returns the AES-128 cipher for a 16-byte key. Every key schedule
// the package builds comes from here.
func expand(key []byte) cipher.Block {
	if onExpand != nil {
		onExpand()
	}
	c, err := aes.NewCipher(key)
	if err != nil {
		panic("she: callers expand 16-byte keys only: " + err.Error())
	}
	return c
}

// zeroChain is the cipher under the all-zero chaining value that keys
// every KDF's first compression. It is expanded once and only read
// afterwards, so any number of goroutines may share it.
var zeroChain = expand(zeroBlock[:])

// cmacSubkeys derives the RFC 4493 subkeys K1, K2 with c, the cipher of
// the MAC key. l is scratch c writes through.
func cmacSubkeys(c cipher.Block, l *[BlockSize]byte) (k1, k2 [BlockSize]byte) {
	*l = zeroBlock
	c.Encrypt(l[:], l[:])
	k1 = dbl(*l)
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
// also the chaining state c writes through. One key schedule serves both
// the subkeys and the MAC.
func cmacInto(c cipher.Block, x *[BlockSize]byte, msg []byte) {
	k1, k2 := cmacSubkeys(c, x)

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
		c.Encrypt(x[:], x[:])
	}
	for j := 0; j < BlockSize; j++ {
		x[j] ^= last[j]
	}
	c.Encrypt(x[:], x[:])
}

// CMAC computes AES-CMAC (RFC 4493) of msg under a 128-bit key.
func CMAC(key, msg []byte) ([]byte, error) {
	if len(key) != BlockSize {
		return nil, errors.New("she: CMAC requires a 128-bit key")
	}
	out := make([]byte, BlockSize)
	cmacInto(expand(key), (*[BlockSize]byte)(out), msg)
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
func encryptECB(key, in []byte) ([]byte, error) {
	if len(in)%BlockSize != 0 {
		return nil, errors.New("she: ECB input not block aligned")
	}
	c := expand(key)
	out := make([]byte, len(in))
	for i := 0; i < len(in); i += BlockSize {
		c.Encrypt(out[i:i+BlockSize], in[i:i+BlockSize])
	}
	return out, nil
}

// decryptECB inverts encryptECB (used by the M4 proof check).
func decryptECB(key, in []byte) ([]byte, error) {
	if len(in)%BlockSize != 0 {
		return nil, errors.New("she: ECB input not block aligned")
	}
	c := expand(key)
	out := make([]byte, len(in))
	for i := 0; i < len(in); i += BlockSize {
		c.Decrypt(out[i:i+BlockSize], in[i:i+BlockSize])
	}
	return out, nil
}

// cbcEncrypt encrypts the whole blocks of src into dst in CBC mode under
// c, chaining from iv. dst may be src.
func cbcEncrypt(c cipher.Block, iv, dst, src []byte) {
	prev := iv
	for i := 0; i < len(src); i += BlockSize {
		for j := 0; j < BlockSize; j++ {
			dst[i+j] = src[i+j] ^ prev[j]
		}
		c.Encrypt(dst[i:i+BlockSize], dst[i:i+BlockSize])
		prev = dst[i : i+BlockSize]
	}
}

// cbcDecrypt inverts cbcEncrypt. dst must not overlap src: each block's
// ciphertext chains into the next.
func cbcDecrypt(c cipher.Block, iv, dst, src []byte) {
	prev := iv
	for i := 0; i < len(src); i += BlockSize {
		c.Decrypt(dst[i:i+BlockSize], src[i:i+BlockSize])
		for j := 0; j < BlockSize; j++ {
			dst[i+j] ^= prev[j]
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
func encryptCBC(key, iv, in []byte) ([]byte, error) {
	if err := checkCBC(iv, in); err != nil {
		return nil, err
	}
	out := make([]byte, len(in))
	cbcEncrypt(expand(key), iv, out, in)
	return out, nil
}

// decryptCBC inverts encryptCBC (CMD_DEC_CBC).
func decryptCBC(key, iv, in []byte) ([]byte, error) {
	if err := checkCBC(iv, in); err != nil {
		return nil, err
	}
	out := make([]byte, len(in))
	cbcDecrypt(expand(key), iv, out, in)
	return out, nil
}

// kdfCipher runs the KDF's first Miyaguchi-Preneel compression, whose
// chaining value is always zero, under the shared zeroChain cipher. It
// returns the compression's output, the chaining value of the second
// compression, and the cipher keyed by it. s is scratch the ciphers
// write through.
func kdfCipher(key [BlockSize]byte, s *[BlockSize]byte) (chain [BlockSize]byte, c cipher.Block) {
	*s = key
	zeroChain.Encrypt(s[:], s[:])
	for i := range chain {
		chain[i] = s[i] ^ key[i]
	}
	return chain, expand(chain[:])
}

// mpCompress is the Miyaguchi-Preneel compression function over AES-128,
// out = AES(chain, block) XOR block XOR chain, with c the cipher keyed by
// chain. s is scratch c writes through.
func mpCompress(c cipher.Block, chain, block [BlockSize]byte, s *[BlockSize]byte) [BlockSize]byte {
	*s = block
	c.Encrypt(s[:], s[:])
	var out [BlockSize]byte
	for i := range out {
		out[i] = s[i] ^ block[i] ^ chain[i]
	}
	return out
}

// KDF is the SHE key-derivation function: Miyaguchi-Preneel over the
// concatenation key || constant, starting from a zero chaining value.
func KDF(key [BlockSize]byte, constant [BlockSize]byte) [BlockSize]byte {
	var s [BlockSize]byte
	chain, c := kdfCipher(key, &s)
	return mpCompress(c, chain, constant, &s)
}

// kdfPair derives the memory-update protocol's key pair from key:
// enc = KDF(key, KeyUpdateEncC) and mac = KDF(key, KeyUpdateMacC). Both
// start with the same compression of key, so they share its output and
// the one key schedule their second compressions run under.
func kdfPair(key [BlockSize]byte) (enc, mac [BlockSize]byte) {
	var s [BlockSize]byte
	chain, c := kdfCipher(key, &s)
	return mpCompress(c, chain, KeyUpdateEncC, &s), mpCompress(c, chain, KeyUpdateMacC, &s)
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
