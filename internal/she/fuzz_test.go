package she

import (
	"bytes"
	"crypto/aes"
	"testing"
)

// fuzzUID is the device of the fuzzed engine: the SHE 1.1 worked
// example's UID 0…01, so the worked example's M1–M3 load as they stand.
var fuzzUID = UID{14: 0x01}

// fuzzEngine is the fuzzed device. Every slot key is known to the oracle;
// the slots cover an empty target (KEY_1), a used counter (KEY_2), the
// wildcard flag (KEY_3), write protection (KEY_5), BOOT_MAC_KEY and a
// RAM_KEY loaded in plaintext.
func fuzzEngine() *Engine {
	e := NewEngine(fuzzUID)
	e.ProvisionMasterKey([BlockSize]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
		0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f})
	for _, p := range []struct {
		id    KeyID
		flags Flags
	}{
		{BootMACKey, Flags{}},
		{Key2, Flags{KeyUsage: true}},
		{Key3, Flags{Wildcard: true}},
		{Key5, Flags{WriteProtection: true}},
	} {
		if err := e.ProvisionKey(p.id, key16(byte(p.id)<<4|byte(p.id)), p.flags); err != nil {
			panic(err)
		}
	}
	e.slots[Key2].counter = 5
	e.LoadPlainKey(key16(0x7A))
	return e
}

// fuzzSeal rebuilds M2 and M3 under k the way a tool holding k would,
// with the reference KDF and CMAC: M2 enters as the plaintext
// counter|flags|0…|key and leaves as its zero-IV CBC encryption.
func fuzzSeal(req *UpdateRequest, k [BlockSize]byte) {
	enc := refKDF(k, KeyUpdateEncC)
	c, err := aes.NewCipher(enc[:])
	if err != nil {
		panic(err)
	}
	var prev [BlockSize]byte
	for i := 0; i < len(req.M2); i += BlockSize {
		for j := range prev {
			prev[j] ^= req.M2[i+j]
		}
		c.Encrypt(prev[:], prev[:])
		copy(req.M2[i:], prev[:])
	}
	mac := refKDF(k, KeyUpdateMacC)
	copy(req.M3[:], refCMAC(mac[:], append(req.M1[:], req.M2[:]...)))
}

// fuzzOpen decrypts M2 under the encryption key derived from k with the
// reference KDF.
func fuzzOpen(req *UpdateRequest, k [BlockSize]byte) (plain [32]byte) {
	enc := refKDF(k, KeyUpdateEncC)
	c, err := aes.NewCipher(enc[:])
	if err != nil {
		panic(err)
	}
	prev := make([]byte, BlockSize)
	for i := 0; i < len(req.M2); i += BlockSize {
		c.Decrypt(plain[i:i+BlockSize], req.M2[i:i+BlockSize])
		for j := 0; j < BlockSize; j++ {
			plain[i+j] ^= prev[j]
		}
		prev = req.M2[i : i+BlockSize]
	}
	return plain
}

// fuzzMayAuthorize is the SHE 1.1 table of authorizing keys, written out
// per target.
func fuzzMayAuthorize(authID, target KeyID) bool {
	switch target {
	case MasterECUKey:
		return authID == MasterECUKey
	case BootMACKey, BootMAC:
		return authID == MasterECUKey || authID == BootMACKey
	default: // KEY_1..KEY_10
		return authID == MasterECUKey || authID == target
	}
}

// FuzzLoadKey feeds attacker-chosen M1|M2|M3 bytes to CMD_LOAD_KEY. When
// seal names a slot, the attacker holds that slot's key: M2 is taken as
// plaintext and M2, M3 are built under the key, as BuildUpdate would for
// any AuthID; otherwise the bytes load as they stand. The oracle: a slot
// changes only when the AuthID may authorize the target, M3 verifies
// under the AuthID slot's key, the UID matches or the wildcard rule
// allows it, and the counter exceeds the stored one; then only the target
// changes, to the key, counter and flags M2 carries, and M4|M5 pass
// VerifyConfirmation.
func FuzzLoadKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, msg []byte, seal uint8) {
		e := fuzzEngine()
		var req UpdateRequest
		copy(req.M1[:], msg)
		copy(req.M2[:], msg[min(len(msg), 16):])
		copy(req.M3[:], msg[min(len(msg), 48):])
		if KeyID(seal) < numKeys {
			fuzzSeal(&req, e.slots[seal].key)
		}
		before := e.slots

		target := KeyID(req.M1[15] >> 4)
		authID := KeyID(req.M1[15] & 0x0F)
		var reqUID UID
		copy(reqUID[:], req.M1[:15])
		want := target >= MasterECUKey && target <= Key10 &&
			fuzzMayAuthorize(authID, target) && before[authID].valid &&
			!(before[target].valid && before[target].flags.WriteProtection)
		var plain [32]byte
		var counter uint32
		var flagBits byte
		if want {
			authKey := before[authID].key
			mac := refKDF(authKey, KeyUpdateMacC)
			want = bytes.Equal(refCMAC(mac[:], append(req.M1[:], req.M2[:]...)), req.M3[:])
			tslot := before[target]
			want = want && (reqUID == fuzzUID ||
				reqUID == WildcardUID && (!tslot.valid || tslot.flags.Wildcard))
			plain = fuzzOpen(&req, authKey)
			var ok bool
			counter, flagBits, ok = unpackCounterFlags(plain[:16])
			want = want && ok && (!tslot.valid || counter > tslot.counter)
		}

		conf, err := e.LoadKey(&req)
		if (err == nil) != want {
			t.Fatalf("M1=%x M2=%x M3=%x: LoadKey err=%v, oracle accepts=%v", req.M1, req.M2, req.M3, err, want)
		}
		if err != nil {
			if e.slots != before {
				t.Fatalf("rejected load (%v) changed the slots", err)
			}
			return
		}
		var newKey [BlockSize]byte
		copy(newKey[:], plain[16:])
		for id := range e.slots {
			s := e.slots[id]
			if KeyID(id) != target {
				if s != before[id] {
					t.Fatalf("load of %v changed slot %v", target, KeyID(id))
				}
				continue
			}
			if !s.valid || s.key != newKey || s.counter != counter || s.flags != unpackFlags(flagBits) {
				t.Fatalf("slot %v after load: %+v, want key %x counter %d flags %05b", target, s, newKey, counter, flagBits)
			}
		}
		if err := VerifyConfirmation(conf, reqUID, target, authID, newKey, counter); err != nil {
			t.Fatalf("confirmation of an accepted load: %v", err)
		}
	})
}
