package she

import (
	"crypto/aes"
	"testing"
)

// TestBlockFIPS197C1 is the FIPS-197 Appendix C.1 AES-128 known answer,
// enciphered and deciphered.
func TestBlockFIPS197C1(t *testing.T) {
	key := mustBlock(t, "000102030405060708090a0b0c0d0e0f")
	plain := mustBlock(t, "00112233445566778899aabbccddeeff")
	want := mustBlock(t, "69c4e0d86a7b0430d8cdb78070b4c55a")
	var c block
	c.expand(&key)
	c.invert()
	var got [BlockSize]byte
	if c.encrypt(&got, &plain); got != want {
		t.Errorf("encrypt = %x, want %x", got, want)
	}
	if c.decrypt(&got, &want); got != plain {
		t.Errorf("decrypt = %x, want %x", got, plain)
	}
}

// FuzzBlockMatchesCryptoAES checks the package's AES-128 against
// crypto/aes on any key and block (each zero-padded or cut to 16 bytes):
// encrypt and decrypt must equal crypto/aes, decrypt must invert encrypt,
// and on the all-zero key, zeroChain, expanded at package
// initialization, must hold the schedule expanded now.
func FuzzBlockMatchesCryptoAES(f *testing.F) {
	f.Fuzz(func(t *testing.T, key, in []byte) {
		var k, b [BlockSize]byte
		copy(k[:], key)
		copy(b[:], in)
		ref, err := aes.NewCipher(k[:])
		if err != nil {
			t.Fatal(err)
		}
		var c block
		c.expand(&k)
		c.invert()

		var got, want [BlockSize]byte
		c.encrypt(&got, &b)
		ref.Encrypt(want[:], b[:])
		if got != want {
			t.Fatalf("key %x: encrypt(%x) = %x, crypto/aes %x", k, b, got, want)
		}
		c.decrypt(&got, &want)
		if got != b {
			t.Fatalf("key %x: decrypt(encrypt(%x)) = %x", k, b, got)
		}
		c.decrypt(&got, &b)
		ref.Decrypt(want[:], b[:])
		if got != want {
			t.Fatalf("key %x: decrypt(%x) = %x, crypto/aes %x", k, b, got, want)
		}
		if k == zeroBlock && zeroChain.enc != c.enc {
			t.Fatalf("zeroChain holds %x, the all-zero key expands to %x", zeroChain.enc, c.enc)
		}
	})
}

// TestCommandAllocs pins each command's heap allocations: the key
// schedules and the blocks they process live on the caller's stack, so
// the KDFs allocate nothing, and CMAC, BuildUpdate and LoadKey only the
// MAC, the request or the confirmation they return.
func TestCommandAllocs(t *testing.T) {
	e, master := provisionedEngine(t)
	// LoadKey needs a fresh counter per call: AllocsPerRun calls it once
	// to warm up, then runs times.
	const runs = 100
	reqs := make([]*UpdateRequest, runs+1)
	for i := range reqs {
		req, err := BuildUpdate(e.UID(), Key1, MasterECUKey, master, key16(byte(i)), uint32(i+1), Flags{})
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = req
	}
	msg := make([]byte, 48)
	var sink [BlockSize]byte
	next := 0
	for _, c := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"KDF", 0, func() { sink = KDF(master, KeyUpdateEncC) }},
		{"kdfPair", 0, func() { sink, _ = kdfPair(master) }},
		{"CMAC", 1, func() {
			if _, err := CMAC(master[:], msg); err != nil {
				t.Fatal(err)
			}
		}},
		{"BuildUpdate", 1, func() {
			if _, err := BuildUpdate(e.UID(), Key2, MasterECUKey, master, sink, 1, Flags{}); err != nil {
				t.Fatal(err)
			}
		}},
		{"LoadKey", 1, func() {
			if _, err := e.LoadKey(reqs[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}},
	} {
		if got := testing.AllocsPerRun(runs, c.fn); got != c.want {
			t.Errorf("%s allocates %.2f times, want %.0f", c.name, got, c.want)
		}
	}
}
