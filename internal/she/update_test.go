package she

import (
	"errors"
	"testing"
	"testing/quick"
)

func provisionedEngine(t *testing.T) (*Engine, [BlockSize]byte) {
	t.Helper()
	e := NewEngine(testUID(0x11))
	master := key16(0xA1)
	e.ProvisionMasterKey(master)
	return e, master
}

func TestLoadKeyRoundTrip(t *testing.T) {
	e, master := provisionedEngine(t)
	newKey := key16(0x42)
	req, err := BuildUpdate(e.UID(), Key1, MasterECUKey, master, newKey, 1, Flags{KeyUsage: true})
	if err != nil {
		t.Fatal(err)
	}
	conf, err := e.LoadKey(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyConfirmation(conf, e.UID(), Key1, MasterECUKey, newKey, 1); err != nil {
		t.Fatalf("confirmation: %v", err)
	}
	// Installed key works and carries its flags.
	valid, flags, counter := e.KeyState(Key1)
	if !valid || !flags.KeyUsage || counter != 1 {
		t.Fatalf("slot state: %v %+v %d", valid, flags, counter)
	}
	mac, err := e.GenerateMAC(Key1, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := CMAC(newKey[:], []byte("hello"))
	if string(mac) != string(want) {
		t.Fatal("installed key does not match")
	}
}

func TestLoadKeyCounterReplayRejected(t *testing.T) {
	e, master := provisionedEngine(t)
	req1, _ := BuildUpdate(e.UID(), Key1, MasterECUKey, master, key16(1), 5, Flags{KeyUsage: true})
	if _, err := e.LoadKey(req1); err != nil {
		t.Fatal(err)
	}
	// Replaying the same request fails (counter 5 <= 5).
	if _, err := e.LoadKey(req1); !errors.Is(err, ErrCounterReplay) {
		t.Fatalf("replay: err=%v", err)
	}
	// An older counter fails too.
	req2, _ := BuildUpdate(e.UID(), Key1, MasterECUKey, master, key16(2), 3, Flags{KeyUsage: true})
	if _, err := e.LoadKey(req2); !errors.Is(err, ErrCounterReplay) {
		t.Fatalf("old counter: err=%v", err)
	}
	// A newer counter succeeds.
	req3, _ := BuildUpdate(e.UID(), Key1, MasterECUKey, master, key16(3), 6, Flags{KeyUsage: true})
	if _, err := e.LoadKey(req3); err != nil {
		t.Fatalf("newer counter: %v", err)
	}
}

func TestLoadKeyWrongAuthKeyRejected(t *testing.T) {
	e, _ := provisionedEngine(t)
	wrong := key16(0xEE)
	req, _ := BuildUpdate(e.UID(), Key1, MasterECUKey, wrong, key16(1), 1, Flags{})
	if _, err := e.LoadKey(req); !errors.Is(err, ErrUpdateAuth) {
		t.Fatalf("err=%v", err)
	}
}

func TestLoadKeyTamperDetected(t *testing.T) {
	e, master := provisionedEngine(t)
	req, _ := BuildUpdate(e.UID(), Key1, MasterECUKey, master, key16(7), 1, Flags{})
	req.M2[5] ^= 0x01
	if _, err := e.LoadKey(req); !errors.Is(err, ErrUpdateAuth) {
		t.Fatalf("tampered M2 accepted: %v", err)
	}
}

// Property: flipping any single bit of M1|M2|M3 makes LoadKey fail.
func TestLoadKeyAnyBitFlipRejectedProperty(t *testing.T) {
	e, master := provisionedEngine(t)
	f := func(region, idx, bit uint8) bool {
		req, err := BuildUpdate(e.UID(), Key2, MasterECUKey, master, key16(9), 2, Flags{})
		if err != nil {
			return false
		}
		switch region % 3 {
		case 0:
			req.M1[int(idx)%len(req.M1)] ^= 1 << (bit % 8)
		case 1:
			req.M2[int(idx)%len(req.M2)] ^= 1 << (bit % 8)
		default:
			req.M3[int(idx)%len(req.M3)] ^= 1 << (bit % 8)
		}
		_, err = e.LoadKey(req)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadKeyUIDMismatch(t *testing.T) {
	e, master := provisionedEngine(t)
	req, _ := BuildUpdate(testUID(0x99), Key1, MasterECUKey, master, key16(1), 1, Flags{})
	if _, err := e.LoadKey(req); !errors.Is(err, ErrUIDMismatch) {
		t.Fatalf("err=%v", err)
	}
}

func TestLoadKeyWildcard(t *testing.T) {
	e, master := provisionedEngine(t)
	// Wildcard update of an empty slot is allowed.
	req, _ := BuildUpdate(WildcardUID, Key4, MasterECUKey, master, key16(4), 1, Flags{Wildcard: true, KeyUsage: true})
	if _, err := e.LoadKey(req); err != nil {
		t.Fatalf("wildcard install: %v", err)
	}
	// Wildcard re-update allowed while the slot keeps Wildcard set.
	req2, _ := BuildUpdate(WildcardUID, Key4, MasterECUKey, master, key16(5), 2, Flags{Wildcard: false, KeyUsage: true})
	if _, err := e.LoadKey(req2); err != nil {
		t.Fatalf("wildcard re-install: %v", err)
	}
	// Now Wildcard is cleared: further wildcard updates are rejected.
	req3, _ := BuildUpdate(WildcardUID, Key4, MasterECUKey, master, key16(6), 3, Flags{})
	if _, err := e.LoadKey(req3); !errors.Is(err, ErrUIDMismatch) {
		t.Fatalf("wildcard after clear: %v", err)
	}
}

func TestLoadKeyWriteProtection(t *testing.T) {
	e, master := provisionedEngine(t)
	req, _ := BuildUpdate(e.UID(), Key5, MasterECUKey, master, key16(5), 1, Flags{WriteProtection: true})
	if _, err := e.LoadKey(req); err != nil {
		t.Fatal(err)
	}
	req2, _ := BuildUpdate(e.UID(), Key5, MasterECUKey, master, key16(6), 2, Flags{})
	if _, err := e.LoadKey(req2); !errors.Is(err, ErrKeyWriteProtected) {
		t.Fatalf("write-protected slot updated: %v", err)
	}
}

func TestLoadKeySelfAuthorizedRotation(t *testing.T) {
	// A slot key can authorize its own replacement (authID == target).
	e, master := provisionedEngine(t)
	old := key16(0x10)
	req, _ := BuildUpdate(e.UID(), Key6, MasterECUKey, master, old, 1, Flags{KeyUsage: true})
	if _, err := e.LoadKey(req); err != nil {
		t.Fatal(err)
	}
	next := key16(0x20)
	req2, err := BuildUpdate(e.UID(), Key6, Key6, old, next, 2, Flags{KeyUsage: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.LoadKey(req2); err != nil {
		t.Fatalf("self-rotation: %v", err)
	}
	mac, _ := e.GenerateMAC(Key6, []byte("m"))
	want, _ := CMAC(next[:], []byte("m"))
	if string(mac) != string(want) {
		t.Fatal("rotated key not in effect")
	}
}

func TestBuildUpdateValidation(t *testing.T) {
	if _, err := BuildUpdate(testUID(1), Key1, MasterECUKey, key16(1), key16(2), CounterMax+1, Flags{}); err == nil {
		t.Fatal("oversized counter accepted")
	}
	if _, err := BuildUpdate(testUID(1), RAMKey, MasterECUKey, key16(1), key16(2), 1, Flags{}); !errors.Is(err, ErrKeyInvalid) {
		t.Fatalf("RAM key update via M1-M3 accepted: %v", err)
	}
	if _, err := BuildUpdate(testUID(1), SecretKey, MasterECUKey, key16(1), key16(2), 1, Flags{}); !errors.Is(err, ErrKeyInvalid) {
		t.Fatal("SECRET_KEY update accepted")
	}
}

func TestCounterFlagsPackRoundTripProperty(t *testing.T) {
	f := func(counter uint32, flags byte) bool {
		counter &= CounterMax
		flags &= 0x1F
		var b [16]byte
		packCounterFlags(b[:], counter, flags)
		c2, f2, ok := unpackCounterFlags(b[:])
		return ok && c2 == counter && f2 == flags
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnpackRejectsNonZeroPadding(t *testing.T) {
	var b [16]byte
	packCounterFlags(b[:], 1, 0)
	b[12] = 1
	if _, _, ok := unpackCounterFlags(b[:]); ok {
		t.Fatal("non-zero padding accepted")
	}
}

func TestVerifyConfirmationDetectsMismatch(t *testing.T) {
	e, master := provisionedEngine(t)
	newKey := key16(0x42)
	req, _ := BuildUpdate(e.UID(), Key1, MasterECUKey, master, newKey, 1, Flags{})
	conf, err := e.LoadKey(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyConfirmation(conf, e.UID(), Key1, MasterECUKey, key16(0x43), 1); err == nil {
		t.Fatal("wrong key accepted by confirmation check")
	}
	if err := VerifyConfirmation(conf, e.UID(), Key1, MasterECUKey, newKey, 2); err == nil {
		t.Fatal("wrong counter accepted by confirmation check")
	}
	if err := VerifyConfirmation(conf, testUID(0x22), Key1, MasterECUKey, newKey, 1); err == nil {
		t.Fatal("wrong UID accepted by confirmation check")
	}
	bad := *conf
	bad.M5[3] ^= 1
	if err := VerifyConfirmation(&bad, e.UID(), Key1, MasterECUKey, newKey, 1); err == nil {
		t.Fatal("tampered M5 accepted")
	}
}

// Regression: a RAM_KEY anyone can load in plaintext must not authorize
// an update of MASTER_ECU_KEY.
func TestLoadKeyPlainRAMKeyCannotReplaceMaster(t *testing.T) {
	e, master := provisionedEngine(t)
	ram := key16(0x5A)
	e.LoadPlainKey(ram)
	req, err := BuildUpdate(e.UID(), MasterECUKey, RAMKey, ram, key16(0x66), 1, Flags{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.LoadKey(req); !errors.Is(err, ErrKeyInvalid) {
		t.Fatalf("RAM_KEY authorized a MASTER_ECU_KEY update: err=%v", err)
	}
	// The master key is untouched: it still authorizes.
	req, _ = BuildUpdate(e.UID(), Key1, MasterECUKey, master, key16(1), 1, Flags{})
	if _, err := e.LoadKey(req); err != nil {
		t.Fatalf("master no longer authorizes: %v", err)
	}
}

// Regression: one general-purpose key must not authorize an update of
// another.
func TestLoadKeyOtherKeySlotCannotAuthorize(t *testing.T) {
	e, _ := provisionedEngine(t)
	k2 := key16(0x22)
	if err := e.ProvisionKey(Key2, k2, Flags{KeyUsage: true}); err != nil {
		t.Fatal(err)
	}
	req, err := BuildUpdate(e.UID(), Key1, Key2, k2, key16(0x11), 1, Flags{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.LoadKey(req); !errors.Is(err, ErrKeyInvalid) {
		t.Fatalf("KEY_2 authorized a KEY_1 update: err=%v", err)
	}
	if valid, _, _ := e.KeyState(Key1); valid {
		t.Fatal("KEY_1 was installed")
	}
}

// Regression: an AuthID nibble outside the slot table is an invalid key,
// not an index out of range.
func TestLoadKeyAuthIDOutsideSlotTable(t *testing.T) {
	e, master := provisionedEngine(t)
	req, err := BuildUpdate(e.UID(), Key1, KeyID(0xF), master, key16(1), 1, Flags{})
	if err != nil {
		t.Fatal(err)
	}
	if req.M1[15] != byte(Key1)<<4|0xF {
		t.Fatalf("M1 ID byte %#x", req.M1[15])
	}
	if _, err := e.LoadKey(req); !errors.Is(err, ErrKeyInvalid) {
		t.Fatalf("AuthID 0xF: err=%v", err)
	}
}

// TestLoadKeyAuthorizingKeyRule runs every (target, AuthID) pair against
// an engine whose every slot holds a known key, with M1–M3 built under
// the AuthID slot's key, and checks that exactly the SHE 1.1 authorizers
// are accepted.
func TestLoadKeyAuthorizingKeyRule(t *testing.T) {
	for target := MasterECUKey; target < RAMKey; target++ {
		for authID := KeyID(0); authID <= 0xF; authID++ {
			e := NewEngine(testUID(0x11))
			for id := MasterECUKey; id < RAMKey; id++ {
				if err := e.ProvisionKey(id, key16(byte(id)), Flags{KeyUsage: true}); err != nil {
					t.Fatal(err)
				}
			}
			e.LoadPlainKey(key16(byte(RAMKey)))
			var authKey [BlockSize]byte
			if authID < numKeys {
				authKey = e.slots[authID].key
			}
			req, err := BuildUpdate(e.UID(), target, authID, authKey, key16(0xC0), 1, Flags{})
			if err != nil {
				t.Fatal(err)
			}
			want := authID == MasterECUKey || (authID == target && target != BootMAC) ||
				(target == BootMAC && authID == BootMACKey)
			_, err = e.LoadKey(req)
			if want && err != nil {
				t.Errorf("%v authorizing %v rejected: %v", authID, target, err)
			}
			if !want && !errors.Is(err, ErrKeyInvalid) {
				t.Errorf("%v authorizing %v: err=%v, want ErrKeyInvalid", authID, target, err)
			}
		}
	}
}

// countExpansions returns how many AES key schedules fn expands.
func countExpansions(fn func()) int {
	n := 0
	onExpand = func() { n++ }
	defer func() { onExpand = nil }()
	fn()
	return n
}

// TestKeyExpansionCounts pins the key schedules each operation builds: one
// per KDF, per KDF pair and per CMAC, so one fleet master-key rotation of
// a per-device vehicle (derive the new key, build the update, load it and
// confirm) costs 10.
func TestKeyExpansionCounts(t *testing.T) {
	e, master := provisionedEngine(t)
	if n := countExpansions(func() { kdfPair(master) }); n != 1 {
		t.Errorf("kdfPair expands %d key schedules, want 1", n)
	}
	if n := countExpansions(func() { _, _ = CMAC(master[:], make([]byte, 48)) }); n != 1 {
		t.Errorf("CMAC expands %d key schedules, want 1", n)
	}

	var newKey [BlockSize]byte
	var req *UpdateRequest
	rotation := []struct {
		name string
		want int
		fn   func()
	}{
		{"KDF", 1, func() { newKey = KDF(master, key16(0x33)) }},
		{"BuildUpdate", 3, func() {
			req, _ = BuildUpdate(e.UID(), MasterECUKey, MasterECUKey, master, newKey, 1, Flags{})
		}},
		{"LoadKey", 6, func() {
			if _, err := e.LoadKey(req); err != nil {
				t.Fatal(err)
			}
		}},
	}
	total := 0
	for _, step := range rotation {
		n := countExpansions(step.fn)
		if n != step.want {
			t.Errorf("%s expands %d key schedules, want %d", step.name, n, step.want)
		}
		total += n
	}
	if total != 10 {
		t.Errorf("a master-key rotation expands %d key schedules, want 10", total)
	}
}
