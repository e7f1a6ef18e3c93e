package she

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
)

// This file implements the SHE memory-update protocol (spec §9.1): the
// authenticated, confidential in-field key provisioning mechanism that the
// paper's OTA and fleet experiments build on. A key update is carried by
// three messages M1..M3 produced by the party that knows the authorizing
// key; the device answers with the confirmation pair M4, M5.

// CounterMax is the largest 28-bit update counter value.
const CounterMax = 1<<28 - 1

// UpdateRequest is the M1|M2|M3 triple.
type UpdateRequest struct {
	M1 [16]byte // UID (120 bits) | target ID (4 bits) | auth ID (4 bits)
	M2 [32]byte // ENC_CBC(K1, counter|flags|0...|newKey)
	M3 [16]byte // CMAC(K2, M1|M2)
}

// UpdateConfirmation is the M4|M5 pair returned by a successful load.
type UpdateConfirmation struct {
	M4 [32]byte // UID|ID|AuthID | ENC_ECB(K3, counter|1|0...)
	M5 [16]byte // CMAC(K4, M4)
}

// BuildUpdate constructs M1..M3 for installing newKey into slot target,
// authorized by authKey held in slot authID on the device with the given
// uid. counter must exceed the slot's stored counter (28 bits).
//
// This is the *tool-side* half of the protocol: an OEM key server (or an
// attacker who has extracted authKey — experiment E3) runs it.
func BuildUpdate(uid UID, target, authID KeyID, authKey, newKey [BlockSize]byte, counter uint32, flags Flags) (*UpdateRequest, error) {
	if counter > CounterMax {
		return nil, fmt.Errorf("she: counter %d exceeds 28 bits", counter)
	}
	if target <= SecretKey || target >= numKeys || target == RAMKey {
		return nil, ErrKeyInvalid
	}
	k1, k2 := kdfPair(authKey)

	var req UpdateRequest
	copy(req.M1[:15], uid[:])
	req.M1[15] = byte(target)<<4 | byte(authID)&0x0F

	// B1|B2: counter(28) | flags(5) | zeros(95) | key(128), encrypted in
	// place.
	packCounterFlags(req.M2[:16], counter, flags.pack())
	copy(req.M2[16:], newKey[:])
	cbcEncrypt(expand(k1[:]), zeroBlock[:], req.M2[:], req.M2[:])

	m := req.m1m2()
	cmacInto(expand(k2[:]), &req.M3, m[:])
	return &req, nil
}

// m1m2 is M1|M2, the message M3 authenticates, joined on the caller's
// stack.
func (r *UpdateRequest) m1m2() (m [16 + 32]byte) {
	copy(m[:16], r.M1[:])
	copy(m[16:], r.M2[:])
	return m
}

// mayAuthorize is the SHE 1.1 authorizing-key rule of CMD_LOAD_KEY:
// MASTER_ECU_KEY authorizes an update of any slot, a key slot its own
// update, and BOOT_MAC_KEY an update of BOOT_MAC. BOOT_MAC holds a MAC,
// not a key, so it authorizes nothing.
func mayAuthorize(authID, target KeyID) bool {
	switch {
	case authID == MasterECUKey:
		return true
	case target == BootMAC:
		return authID == BootMACKey
	default:
		return authID == target
	}
}

// packCounterFlags writes counter (28 bits) then flags (5 bits) MSB-first
// into the first 33 bits of dst, leaving the remaining bits zero.
func packCounterFlags(dst []byte, counter uint32, flags byte) {
	v := uint64(counter)<<36 | uint64(flags)<<31 // 64-bit prefix of the block
	for i := 0; i < 8; i++ {
		dst[i] = byte(v >> (56 - 8*i))
	}
}

// unpackCounterFlags inverts packCounterFlags and verifies the zero
// padding of the first block.
func unpackCounterFlags(src []byte) (counter uint32, flags byte, ok bool) {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(src[i])
	}
	counter = uint32(v >> 36)
	flags = byte(v >> 31 & 0x1F)
	// Bits below the flag field and bytes 8..15 must be zero.
	if v&0x7FFFFFFF != 0 {
		return 0, 0, false
	}
	for _, b := range src[8:16] {
		if b != 0 {
			return 0, 0, false
		}
	}
	return counter, flags, true
}

// LoadKey executes CMD_LOAD_KEY: verifies and installs an update request,
// returning the M4|M5 confirmation on success. An AuthID that mayAuthorize
// does not permit for the target, including one outside the slot table,
// is rejected with ErrKeyInvalid before any key is used.
func (e *Engine) LoadKey(req *UpdateRequest) (*UpdateConfirmation, error) {
	target := KeyID(req.M1[15] >> 4)
	authID := KeyID(req.M1[15] & 0x0F)
	if target <= SecretKey || target >= numKeys || target == RAMKey {
		return nil, ErrKeyInvalid
	}
	if authID >= numKeys || !mayAuthorize(authID, target) {
		return nil, fmt.Errorf("%w: %v may not authorize an update of %v", ErrKeyInvalid, authID, target)
	}
	auth := &e.slots[authID]
	if !auth.valid {
		return nil, fmt.Errorf("%w: auth slot %v", ErrKeyEmpty, authID)
	}
	tslot := &e.slots[target]
	if tslot.flags.WriteProtection && tslot.valid {
		return nil, fmt.Errorf("%w: %v", ErrKeyWriteProtected, target)
	}

	k1, k2 := kdfPair(auth.key)

	// s is the block scratch the ciphers write through.
	var s struct {
		mac   [BlockSize]byte
		plain [2 * BlockSize]byte
	}
	m := req.m1m2()
	cmacInto(expand(k2[:]), &s.mac, m[:])
	if subtle.ConstantTimeCompare(s.mac[:], req.M3[:]) != 1 {
		return nil, ErrUpdateAuth
	}

	// UID check: the request's UID must match this device, unless it is the
	// wildcard UID and the target slot permits wildcard updates.
	var reqUID UID
	copy(reqUID[:], req.M1[:15])
	if reqUID != e.uid {
		wildcardOK := reqUID == WildcardUID && (!tslot.valid || tslot.flags.Wildcard)
		if !wildcardOK {
			return nil, ErrUIDMismatch
		}
	}

	cbcDecrypt(expand(k1[:]), zeroBlock[:], s.plain[:], req.M2[:])
	counter, flagBits, ok := unpackCounterFlags(s.plain[:16])
	if !ok {
		return nil, ErrUpdateAuth
	}
	if tslot.valid && counter <= tslot.counter {
		return nil, fmt.Errorf("%w: %d <= %d", ErrCounterReplay, counter, tslot.counter)
	}

	var newKey [BlockSize]byte
	copy(newKey[:], s.plain[16:])
	tslot.key = newKey
	tslot.counter = counter
	tslot.flags = unpackFlags(flagBits)
	tslot.valid = true

	return confirm(req.M1, newKey, counter), nil
}

// confirm builds M4|M5 from the installed key, encrypting and MACing in
// place in the confirmation it returns.
func confirm(m1 [16]byte, newKey [BlockSize]byte, counter uint32) *UpdateConfirmation {
	k3, k4 := kdfPair(newKey)

	var conf UpdateConfirmation
	copy(conf.M4[:16], m1[:])
	// counter(28) | 1 | 0... — the set bit marks a successful write.
	proof := conf.M4[16:]
	binary.BigEndian.PutUint64(proof, uint64(counter)<<36|1<<35)
	expand(k3[:]).Encrypt(proof, proof)
	cmacInto(expand(k4[:]), &conf.M5, conf.M4[:])
	return &conf
}

// VerifyConfirmation lets the tool side check M4|M5 against the key and
// counter it sent — proof that the device really installed the key.
func VerifyConfirmation(conf *UpdateConfirmation, uid UID, target, authID KeyID, newKey [BlockSize]byte, counter uint32) error {
	k3, k4 := kdfPair(newKey)

	var m1 [16]byte
	copy(m1[:15], uid[:])
	m1[15] = byte(target)<<4 | byte(authID)&0x0F
	if !bytes.Equal(conf.M4[:16], m1[:]) {
		return fmt.Errorf("she: confirmation M1 mismatch")
	}
	var mac [BlockSize]byte
	cmacInto(expand(k4[:]), &mac, conf.M4[:])
	if subtle.ConstantTimeCompare(mac[:], conf.M5[:]) != 1 {
		return fmt.Errorf("she: confirmation M5 mismatch")
	}
	proof, err := decryptECB(k3[:], conf.M4[16:])
	if err != nil {
		return err
	}
	v := binary.BigEndian.Uint64(proof)
	if uint32(v>>36) != counter || v>>35&1 != 1 {
		return fmt.Errorf("she: confirmation counter/status mismatch")
	}
	return nil
}
