package she

import (
	"bytes"
	"crypto/aes"
	"encoding/hex"
	"math/rand"
	"testing"
)

// refMP is the straightforward Miyaguchi-Preneel compression: a fresh key
// schedule for every chaining value.
func refMP(chain, block [BlockSize]byte) [BlockSize]byte {
	c, err := aes.NewCipher(chain[:])
	if err != nil {
		panic(err)
	}
	var out [BlockSize]byte
	c.Encrypt(out[:], block[:])
	for i := range out {
		out[i] ^= block[i] ^ chain[i]
	}
	return out
}

// refKDF is the SHE KDF as the specification writes it: two compressions
// from a zero chaining value, each with its own key schedule.
func refKDF(key, constant [BlockSize]byte) [BlockSize]byte {
	var chain [BlockSize]byte
	chain = refMP(chain, key)
	return refMP(chain, constant)
}

// refCMAC is RFC 4493 AES-CMAC with one key schedule for the subkeys and
// another for the MAC chain.
func refCMAC(key, msg []byte) []byte {
	sub, err := aes.NewCipher(key)
	if err != nil {
		panic(err)
	}
	var l [BlockSize]byte
	sub.Encrypt(l[:], l[:])
	k1 := dbl(l)
	k2 := dbl(k1)
	c, err := aes.NewCipher(key)
	if err != nil {
		panic(err)
	}
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
	var x [BlockSize]byte
	for i := 0; i < n-1; i++ {
		for j := range x {
			x[j] ^= msg[i*BlockSize+j]
		}
		c.Encrypt(x[:], x[:])
	}
	for j := range x {
		x[j] ^= last[j]
	}
	c.Encrypt(x[:], x[:])
	return x[:]
}

// refMessageLengths are the CMAC message lengths the property tests
// cover: empty, every partial single block, one whole block, one block
// plus a byte, and three whole blocks.
var refMessageLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 48}

func randKey(rng *rand.Rand) [BlockSize]byte {
	var k [BlockSize]byte
	rng.Read(k[:])
	return k
}

// Property: KDF and kdfPair match the two-compression reference on
// random keys and constants.
func TestKDFMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		key, constant := randKey(rng), randKey(rng)
		if got, want := KDF(key, constant), refKDF(key, constant); got != want {
			t.Fatalf("KDF(%x, %x) = %x, reference %x", key, constant, got, want)
		}
		enc, mac := kdfPair(key)
		if want := refKDF(key, KeyUpdateEncC); enc != want {
			t.Fatalf("kdfPair(%x) enc = %x, reference %x", key, enc, want)
		}
		if want := refKDF(key, KeyUpdateMacC); mac != want {
			t.Fatalf("kdfPair(%x) mac = %x, reference %x", key, mac, want)
		}
	}
}

// Property: CMAC matches the two-cipher reference on random keys and
// messages of every length class.
func TestCMACMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range refMessageLengths {
		for i := 0; i < 50; i++ {
			key := randKey(rng)
			msg := make([]byte, n)
			rng.Read(msg)
			got, err := CMAC(key[:], msg)
			if err != nil {
				t.Fatal(err)
			}
			if want := refCMAC(key[:], msg); !bytes.Equal(got, want) {
				t.Fatalf("CMAC(%x, %x) = %x, reference %x", key, msg, got, want)
			}
		}
	}
}

func mustBlock(t *testing.T, s string) [BlockSize]byte {
	t.Helper()
	var b [BlockSize]byte
	if n := copy(b[:], mustHex(t, s)); n != BlockSize {
		t.Fatalf("%q is %d bytes, want %d", s, n, BlockSize)
	}
	return b
}

// TestMemoryUpdateWorkedExample pins M1–M5 of the SHE 1.1 worked example
// byte for byte, on both the tool side and the device side: KEY_1 of the
// device with UID 0…01 is loaded under MASTER_ECU_KEY with counter 1 and
// no flags.
func TestMemoryUpdateWorkedExample(t *testing.T) {
	uid := UID{14: 0x01}
	authKey := mustBlock(t, "000102030405060708090a0b0c0d0e0f")
	newKey := mustBlock(t, "0f0e0d0c0b0a09080706050403020100")
	req, err := BuildUpdate(uid, Key1, MasterECUKey, authKey, newKey, 1, Flags{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"M1": "00000000000000000000000000000141",
		"M2": "2b111e2d93f486566bcbba1d7f7a9797c94643b050fc5d4d7de14cff682203c3",
		"M3": "b9d745e5ace7d41860bc63c2b9f5bb46",
		"M4": "00000000000000000000000000000141b472e8d8727d70d57295e74849a27917",
		"M5": "820d8d95dc11b4668878160cb2a4e23e",
	}
	check := func(name string, got []byte) {
		t.Helper()
		if g := hex.EncodeToString(got); g != want[name] {
			t.Errorf("%s = %s, want %s", name, g, want[name])
		}
	}
	check("M1", req.M1[:])
	check("M2", req.M2[:])
	check("M3", req.M3[:])

	e := NewEngine(uid)
	e.ProvisionMasterKey(authKey)
	conf, err := e.LoadKey(req)
	if err != nil {
		t.Fatal(err)
	}
	check("M4", conf.M4[:])
	check("M5", conf.M5[:])
	if err := VerifyConfirmation(conf, uid, Key1, MasterECUKey, newKey, 1); err != nil {
		t.Fatal(err)
	}
}
