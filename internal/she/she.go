package she

import (
	"crypto/rand"
	"errors"
	"fmt"
)

// KeyID names a SHE key slot.
type KeyID int

// The SHE key slot layout (spec §8.1).
const (
	SecretKey    KeyID = iota // ROM secret, device unique, never readable
	MasterECUKey              // authorizes updates of all slots
	BootMACKey                // verifies the boot image
	BootMAC                   // expected CMAC of the boot image
	Key1
	Key2
	Key3
	Key4
	Key5
	Key6
	Key7
	Key8
	Key9
	Key10
	RAMKey // volatile, loadable in plaintext
	numKeys
)

// String names the slot.
func (id KeyID) String() string {
	switch {
	case id == SecretKey:
		return "SECRET_KEY"
	case id == MasterECUKey:
		return "MASTER_ECU_KEY"
	case id == BootMACKey:
		return "BOOT_MAC_KEY"
	case id == BootMAC:
		return "BOOT_MAC"
	case id >= Key1 && id <= Key10:
		return fmt.Sprintf("KEY_%d", int(id-Key1)+1)
	case id == RAMKey:
		return "RAM_KEY"
	default:
		return fmt.Sprintf("KeyID(%d)", int(id))
	}
}

// Flags are the per-slot protection attributes (spec §8.2).
type Flags struct {
	// WriteProtection permanently locks the slot against further updates.
	WriteProtection bool
	// BootProtection disables the key if secure boot failed.
	BootProtection bool
	// DebuggerProtection disables the key while a debugger is attached.
	DebuggerProtection bool
	// KeyUsage selects CMAC use (true) vs encryption use (false).
	KeyUsage bool
	// Wildcard permits updates authorized with the wildcard UID.
	Wildcard bool
}

// pack serializes flags into the 5-bit field of the update protocol.
func (f Flags) pack() byte {
	var b byte
	if f.WriteProtection {
		b |= 1 << 4
	}
	if f.BootProtection {
		b |= 1 << 3
	}
	if f.DebuggerProtection {
		b |= 1 << 2
	}
	if f.KeyUsage {
		b |= 1 << 1
	}
	if f.Wildcard {
		b |= 1
	}
	return b
}

func unpackFlags(b byte) Flags {
	return Flags{
		WriteProtection:    b>>4&1 == 1,
		BootProtection:     b>>3&1 == 1,
		DebuggerProtection: b>>2&1 == 1,
		KeyUsage:           b>>1&1 == 1,
		Wildcard:           b&1 == 1,
	}
}

// slot is one key slot's state.
type slot struct {
	key     [BlockSize]byte
	counter uint32 // 28-bit update counter
	flags   Flags
	valid   bool
}

// UID is the 120-bit device-unique identifier, stored left-aligned in 15
// bytes.
type UID [15]byte

// WildcardUID (all zero) authorizes updates of wildcard-enabled slots on
// any device.
var WildcardUID UID

// Errors returned by Engine commands.
var (
	ErrKeyEmpty          = errors.New("she: key slot is empty")
	ErrKeyInvalid        = errors.New("she: key slot out of range for command")
	ErrKeyWriteProtected = errors.New("she: key slot is write-protected")
	ErrKeyUsage          = errors.New("she: key usage flag forbids this operation")
	ErrBootProtected     = errors.New("she: key disabled after secure boot failure")
	ErrDebuggerActive    = errors.New("she: key disabled while debugger attached")
	ErrCounterReplay     = errors.New("she: update counter not greater than stored counter")
	ErrUpdateAuth        = errors.New("she: M3 verification failed")
	ErrUIDMismatch       = errors.New("she: UID mismatch and wildcard not permitted")
	ErrSequence          = errors.New("she: command sequence violation")
)

// Engine is one SHE instance, as embedded in an MCU.
type Engine struct {
	uid   UID
	slots [numKeys]slot

	// DebuggerAttached models the external debugger sense line.
	DebuggerAttached bool

	bootVerified bool
	bootDone     bool

	// Leak is an optional side-channel tap: when non-nil it observes every
	// AES key-use with the key bytes and the processed block, feeding the
	// power-trace model in internal/sidechannel.
	Leak func(op string, key, block []byte)

	// base is the post-construction snapshot recorded by MarkBaseline for
	// pooled reuse; see ResetToBaseline.
	base *engineBaseline
}

// engineBaseline is the sealed post-provisioning state of an Engine. The
// slot array snapshot includes SECRET_KEY: a pooled engine keeps its own
// device-unique secret across resets, which is observable nowhere (that
// is the point of SHE).
type engineBaseline struct {
	slots        [numKeys]slot
	debugger     bool
	bootVerified bool
	bootDone     bool
	leak         func(op string, key, block []byte)
}

// MarkBaseline records the engine's current key material and boot state
// as the reset target.
func (e *Engine) MarkBaseline() {
	e.base = &engineBaseline{
		slots:        e.slots,
		debugger:     e.DebuggerAttached,
		bootVerified: e.bootVerified,
		bootDone:     e.bootDone,
		leak:         e.Leak,
	}
}

// ResetToBaseline restores every key slot, the debugger sense line and
// the boot state to the MarkBaseline snapshot.
func (e *Engine) ResetToBaseline() {
	if e.base == nil {
		panic("she: ResetToBaseline before MarkBaseline")
	}
	e.slots = e.base.slots
	e.DebuggerAttached = e.base.debugger
	e.bootVerified = e.base.bootVerified
	e.bootDone = e.base.bootDone
	e.Leak = e.base.leak
}

// NewEngine creates an engine with the given UID and a freshly generated
// device-unique SECRET_KEY.
func NewEngine(uid UID) *Engine {
	e := &Engine{uid: uid}
	var secret [BlockSize]byte
	if _, err := rand.Read(secret[:]); err != nil {
		panic("she: crypto/rand failed: " + err.Error())
	}
	e.slots[SecretKey] = slot{key: secret, valid: true, flags: Flags{WriteProtection: true}}
	return e
}

// UID reports the device-unique identifier.
func (e *Engine) UID() UID { return e.uid }

// ProvisionMasterKey installs the MASTER_ECU_KEY directly, modelling the
// factory provisioning step that happens before the device is fielded.
// In-field updates must use LoadKey (M1–M3).
func (e *Engine) ProvisionMasterKey(key [BlockSize]byte) {
	e.slots[MasterECUKey] = slot{key: key, valid: true, counter: 0}
}

// ProvisionKey installs an arbitrary slot at the factory.
func (e *Engine) ProvisionKey(id KeyID, key [BlockSize]byte, flags Flags) error {
	if id <= SecretKey || id >= numKeys {
		return ErrKeyInvalid
	}
	e.slots[id] = slot{key: key, valid: true, flags: flags}
	return nil
}

// KeyState reports whether a slot holds a key, and its flags and counter.
// The key material itself is never readable — that is the point of SHE.
func (e *Engine) KeyState(id KeyID) (valid bool, flags Flags, counter uint32) {
	if id < 0 || id >= numKeys {
		return false, Flags{}, 0
	}
	s := e.slots[id]
	return s.valid, s.flags, s.counter
}

// useKey fetches slot key material for a cryptographic operation, applying
// the protection flags.
func (e *Engine) useKey(id KeyID, wantMAC bool) ([BlockSize]byte, error) {
	var zero [BlockSize]byte
	if id < 0 || id >= numKeys || id == BootMAC {
		return zero, ErrKeyInvalid
	}
	s := &e.slots[id]
	if !s.valid {
		return zero, fmt.Errorf("%w: %v", ErrKeyEmpty, id)
	}
	if s.flags.BootProtection && e.bootDone && !e.bootVerified {
		return zero, fmt.Errorf("%w: %v", ErrBootProtected, id)
	}
	if s.flags.DebuggerProtection && e.DebuggerAttached {
		return zero, fmt.Errorf("%w: %v", ErrDebuggerActive, id)
	}
	// Usage enforcement applies to the general-purpose slots only.
	if id >= Key1 && id <= Key10 && s.flags.KeyUsage != wantMAC {
		return zero, fmt.Errorf("%w: %v", ErrKeyUsage, id)
	}
	return s.key, nil
}

// GenerateMAC computes CMAC(key, msg) using a slot (CMD_GENERATE_MAC).
func (e *Engine) GenerateMAC(id KeyID, msg []byte) ([]byte, error) {
	k, err := e.useKey(id, true)
	if err != nil {
		return nil, err
	}
	if e.Leak != nil {
		e.Leak("cmac", k[:], firstBlock(msg))
	}
	return CMAC(k[:], msg)
}

// VerifyMAC verifies a possibly truncated CMAC (CMD_VERIFY_MAC).
func (e *Engine) VerifyMAC(id KeyID, msg, mac []byte, macBits int) (bool, error) {
	k, err := e.useKey(id, true)
	if err != nil {
		return false, err
	}
	return VerifyCMAC(k[:], msg, mac, macBits)
}

// EncryptECB encrypts block-aligned data (CMD_ENC_ECB).
func (e *Engine) EncryptECB(id KeyID, plain []byte) ([]byte, error) {
	k, err := e.useKey(id, false)
	if err != nil {
		return nil, err
	}
	if e.Leak != nil {
		e.Leak("enc", k[:], firstBlock(plain))
	}
	return encryptECB(k[:], plain)
}

// EncryptCBC encrypts block-aligned data with the given IV (CMD_ENC_CBC).
func (e *Engine) EncryptCBC(id KeyID, iv, plain []byte) ([]byte, error) {
	k, err := e.useKey(id, false)
	if err != nil {
		return nil, err
	}
	if e.Leak != nil {
		e.Leak("enc", k[:], firstBlock(plain))
	}
	return encryptCBC(k[:], iv, plain)
}

// DecryptCBC decrypts block-aligned data with the given IV (CMD_DEC_CBC).
func (e *Engine) DecryptCBC(id KeyID, iv, ct []byte) ([]byte, error) {
	k, err := e.useKey(id, false)
	if err != nil {
		return nil, err
	}
	return decryptCBC(k[:], iv, ct)
}

// LoadPlainKey loads the volatile RAM_KEY in plaintext (CMD_LOAD_PLAIN_KEY).
func (e *Engine) LoadPlainKey(key [BlockSize]byte) {
	e.slots[RAMKey] = slot{key: key, valid: true, flags: Flags{KeyUsage: true}}
	// RAM key may be used for both MAC and cipher work; usage enforcement
	// only applies to Key1..Key10 (see useKey).
}

// TRNG returns cryptographically random bytes (CMD_TRNG).
func (e *Engine) TRNG(n int) ([]byte, error) {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		return nil, err
	}
	return b, nil
}

func firstBlock(msg []byte) []byte {
	if len(msg) >= BlockSize {
		return msg[:BlockSize]
	}
	b := make([]byte, BlockSize)
	copy(b, msg)
	return b
}
