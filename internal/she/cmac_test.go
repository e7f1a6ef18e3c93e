package she

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// RFC 4493 §4 test vectors.
func TestCMACRFC4493Vectors(t *testing.T) {
	key := "2b7e151628aed2a6abf7158809cf4f3c"
	msg := "6bc1bee22e409f96e93d7e117393172a" +
		"ae2d8a571e03ac9c9eb76fac45af8e51" +
		"30c81c46a35ce411e5fbc1191a0a52ef" +
		"f69f2445df4f9b17ad2b417be66c3710"
	cases := []struct {
		msgLen int
		want   string
	}{
		{0, "bb1d6929e95937287fa37d129b756746"},
		{16, "070a16b46b4d4144f79bdd9dd04a287c"},
		{40, "dfa66747de9ae63030ca32611497c827"},
		{64, "51f0bebf7e3b9d92fc49741779363cfe"},
	}
	k := mustHex(t, key)
	m := mustHex(t, msg)
	for _, c := range cases {
		got, err := CMAC(k, m[:c.msgLen])
		if err != nil {
			t.Fatal(err)
		}
		if want := mustHex(t, c.want); !bytes.Equal(got, want) {
			t.Errorf("CMAC len=%d: got %x, want %x", c.msgLen, got, want)
		}
	}
}

func TestCMACSubkeysRFC4493(t *testing.T) {
	var l [BlockSize]byte
	k1, k2 := cmacSubkeys(expand(mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c")), &l)
	if want := mustHex(t, "fbeed618357133667c85e08f7236a8de"); !bytes.Equal(k1[:], want) {
		t.Errorf("K1=%x", k1)
	}
	if want := mustHex(t, "f7ddac306ae266ccf90bc11ee46d513b"); !bytes.Equal(k2[:], want) {
		t.Errorf("K2=%x", k2)
	}
}

func TestCMACKeyLength(t *testing.T) {
	if _, err := CMAC(make([]byte, 24), nil); err == nil {
		t.Fatal("CMAC accepted a 192-bit key")
	}
}

// Property: any bit flip in the message changes the MAC.
func TestCMACBitFlipProperty(t *testing.T) {
	key := mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	f := func(msg []byte, idx, bit uint8) bool {
		if len(msg) == 0 {
			return true
		}
		m1, err := CMAC(key, msg)
		if err != nil {
			return false
		}
		mut := append([]byte(nil), msg...)
		mut[int(idx)%len(mut)] ^= 1 << (bit % 8)
		m2, err := CMAC(key, mut)
		if err != nil {
			return false
		}
		return !bytes.Equal(m1, m2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: messages of length n and n+1 (zero-extended) have different
// MACs — padding is unambiguous.
func TestCMACPaddingUnambiguous(t *testing.T) {
	key := mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	for n := 0; n < 48; n++ {
		msg := make([]byte, n)
		ext := make([]byte, n+1)
		a, _ := CMAC(key, msg)
		b, _ := CMAC(key, ext)
		if bytes.Equal(a, b) {
			t.Fatalf("length extension collision at n=%d", n)
		}
	}
}

func TestVerifyCMACTruncated(t *testing.T) {
	key := mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	msg := []byte("authenticated CAN payload")
	mac, err := CMAC(key, msg)
	if err != nil {
		t.Fatal(err)
	}
	for _, bits := range []int{32, 64, 128} {
		ok, err := VerifyCMAC(key, msg, mac[:bits/8], bits)
		if err != nil || !ok {
			t.Fatalf("truncated verify %d bits: ok=%v err=%v", bits, ok, err)
		}
	}
	// Wrong MAC fails.
	bad := append([]byte(nil), mac...)
	bad[0] ^= 1
	ok, _ := VerifyCMAC(key, msg, bad, 32)
	if ok {
		t.Fatal("corrupted truncated MAC verified")
	}
	// Bad parameters.
	if _, err := VerifyCMAC(key, msg, mac, 7); err == nil {
		t.Fatal("7-bit MAC accepted")
	}
	if _, err := VerifyCMAC(key, msg, mac, 136); err == nil {
		t.Fatal("136-bit MAC accepted")
	}
	// Short MAC buffer is a mismatch, not an error.
	ok, err = VerifyCMAC(key, msg, mac[:2], 32)
	if err != nil || ok {
		t.Fatalf("short mac: ok=%v err=%v", ok, err)
	}
}

func TestCBCRoundTrip(t *testing.T) {
	key := mustHex(t, "000102030405060708090a0b0c0d0e0f")
	iv := mustHex(t, "101112131415161718191a1b1c1d1e1f")
	plain := make([]byte, 64)
	for i := range plain {
		plain[i] = byte(i)
	}
	ct, err := encryptCBC(key, iv, plain)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decryptCBC(key, iv, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, plain) {
		t.Fatal("CBC round trip failed")
	}
	if bytes.Equal(ct[:16], ct[16:32]) {
		t.Fatal("CBC produced identical blocks for distinct plaintext")
	}
}

func TestECBRoundTripAndAlignment(t *testing.T) {
	key := mustHex(t, "000102030405060708090a0b0c0d0e0f")
	plain := make([]byte, 32)
	ct, err := encryptECB(key, plain)
	if err != nil {
		t.Fatal(err)
	}
	// ECB leaks equality of blocks — by design.
	if !bytes.Equal(ct[:16], ct[16:]) {
		t.Fatal("ECB of equal blocks differs")
	}
	back, err := decryptECB(key, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, plain) {
		t.Fatal("ECB round trip failed")
	}
	if _, err := encryptECB(key, make([]byte, 15)); err == nil {
		t.Fatal("unaligned ECB accepted")
	}
	if _, err := decryptECB(key, make([]byte, 15)); err == nil {
		t.Fatal("unaligned ECB decrypt accepted")
	}
}

func TestKDFDistinctConstants(t *testing.T) {
	var key [BlockSize]byte
	copy(key[:], mustHex(t, "000102030405060708090a0b0c0d0e0f"))
	enc := KDF(key, KeyUpdateEncC)
	mac := KDF(key, KeyUpdateMacC)
	if enc == mac {
		t.Fatal("KDF constants collide")
	}
	if enc == key {
		t.Fatal("KDF returned its input")
	}
	// Deterministic.
	if enc != KDF(key, KeyUpdateEncC) {
		t.Fatal("KDF not deterministic")
	}
}

// SHE spec §9.2 example: K1/K2 derived from the example MASTER_ECU_KEY.
func TestKDFSHESpecVector(t *testing.T) {
	var master [BlockSize]byte
	copy(master[:], mustHex(t, "000102030405060708090a0b0c0d0e0f"))
	k1 := KDF(master, KeyUpdateEncC)
	k2 := KDF(master, KeyUpdateMacC)
	// Values from the SHE 1.1 memory-update example.
	if want := mustHex(t, "118a46447a770d87828a69c222e2d17e"); !bytes.Equal(k1[:], want) {
		t.Errorf("K1=%x, want %x", k1, want)
	}
	if want := mustHex(t, "2ebb2a3da62dbd64b18ba6493e9fbe22"); !bytes.Equal(k2[:], want) {
		t.Errorf("K2=%x, want %x", k2, want)
	}
}
