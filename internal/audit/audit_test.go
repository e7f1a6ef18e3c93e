package audit

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"autosec/internal/she"
	"autosec/internal/sim"
)

func sheSealer(t *testing.T) func([]byte) ([]byte, error) {
	t.Helper()
	var uid she.UID
	e := she.NewEngine(uid)
	var key [16]byte
	copy(key[:], "audit-seal-key-1")
	if err := e.ProvisionKey(she.Key7, key, she.Flags{KeyUsage: true}); err != nil {
		t.Fatal(err)
	}
	return func(msg []byte) ([]byte, error) { return e.GenerateMAC(she.Key7, msg) }
}

func populated(t *testing.T) *Log {
	t.Helper()
	l := New(sheSealer(t))
	events := []struct {
		src, ev string
	}{
		{"gateway", "deny:default id=0x7DF from=infotainment"},
		{"ids", "frequency rate high id=0x0C0"},
		{"gateway", "quarantine infotainment"},
		{"uds", "security access unlocked level=1"},
		{"ota", "campaign brake-fw v2 installed"},
	}
	for i, e := range events {
		l.Append(sim.Time(i)*sim.Second, e.src, e.ev)
	}
	return l
}

func TestChainVerifiesWhenIntact(t *testing.T) {
	l := populated(t)
	if err := l.VerifyChain(); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 5 {
		t.Fatalf("len=%d", l.Len())
	}
}

func TestChainDetectsEdit(t *testing.T) {
	l := populated(t)
	l.TamperWith(2, "nothing happened here")
	if err := l.VerifyChain(); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("err=%v", err)
	}
}

func TestChainDetectsDeletionInMiddle(t *testing.T) {
	l := populated(t)
	// Remove entry 1 by splicing — the classic "clean the IDS alert".
	l.entries = append(l.entries[:1], l.entries[2:]...)
	if err := l.VerifyChain(); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("err=%v", err)
	}
}

func TestChainAloneMissesTruncation(t *testing.T) {
	// Dropping the newest entries leaves a valid (shorter) chain: this is
	// exactly the gap seals close.
	l := populated(t)
	l.Truncate(3)
	if err := l.VerifyChain(); err != nil {
		t.Fatalf("truncated chain should still verify: %v", err)
	}
}

func TestSealsCatchTruncation(t *testing.T) {
	l := populated(t)
	if err := l.SealNow(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if err := l.VerifySeals(); err != nil {
		t.Fatal(err)
	}
	l.Truncate(3)
	if err := l.VerifySeals(); !errors.Is(err, ErrSealBroken) {
		t.Fatalf("truncation not caught: %v", err)
	}
}

func TestSealsCatchEditBehindSeal(t *testing.T) {
	l := populated(t)
	_ = l.SealNow(10 * sim.Second)
	l.TamperWith(0, "benign")
	// The chain breaks first; but even a consistently rewritten chain
	// (attacker recomputes hashes) fails the seal because the head moved.
	for i := range l.entries {
		var prev [32]byte
		if i > 0 {
			prev = l.entries[i-1].hash
		}
		l.entries[i].prev = prev
		l.entries[i].hash = l.hash(prev, l.entries[i].At, l.entries[i].Source, l.entries[i].Event)
	}
	if err := l.VerifyChain(); err != nil {
		t.Fatalf("recomputed chain should self-verify: %v", err)
	}
	if err := l.VerifySeals(); !errors.Is(err, ErrSealBroken) {
		t.Fatalf("rewritten history passed the seal: %v", err)
	}
}

func TestMultipleSeals(t *testing.T) {
	l := populated(t)
	_ = l.SealNow(10 * sim.Second)
	l.Append(11*sim.Second, "ids", "another alert")
	_ = l.SealNow(12 * sim.Second)
	if len(l.Seals()) != 2 {
		t.Fatalf("seals=%d", len(l.Seals()))
	}
	if err := l.VerifySeals(); err != nil {
		t.Fatal(err)
	}
}

func TestNoSealerErrors(t *testing.T) {
	l := New(nil)
	l.Append(0, "x", "y")
	if err := l.SealNow(0); !errors.Is(err, ErrNoSealer) {
		t.Fatalf("err=%v", err)
	}
	if err := l.VerifySeals(); !errors.Is(err, ErrNoSealer) {
		t.Fatalf("err=%v", err)
	}
	// Chain verification still works without a sealer.
	if err := l.VerifyChain(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyLog(t *testing.T) {
	l := New(sheSealer(t))
	if err := l.VerifyChain(); err != nil {
		t.Fatal(err)
	}
	if err := l.SealNow(0); err != nil {
		t.Fatal(err)
	}
	if err := l.VerifySeals(); err != nil {
		t.Fatal(err)
	}
}

// Property: any single-entry edit anywhere breaks chain verification.
func TestAnyEditBreaksChainProperty(t *testing.T) {
	l := populated(t)
	f := func(idx uint8, text string) bool {
		if text == "" {
			return true
		}
		i := int(idx) % l.Len()
		if l.entries[i].Event == text {
			return true
		}
		saved := l.entries[i].Event
		l.TamperWith(i, text)
		broken := l.VerifyChain() != nil
		l.TamperWith(i, saved)
		return broken && l.VerifyChain() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refHash is the chain-hash layout streamed through hash.Hash, the
// reference the Log's scratch-buffer hash must reproduce byte for byte.
func refHash(prev [32]byte, at sim.Time, source, event string) [32]byte {
	h := sha256.New()
	h.Write(prev[:])
	var t [8]byte
	binary.BigEndian.PutUint64(t[:], uint64(at))
	h.Write(t[:])
	h.Write([]byte(source))
	h.Write([]byte{0})
	h.Write([]byte(event))
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestChainHashMatchesReference(t *testing.T) {
	l := populated(t)
	l.Append(-sim.Second, "", "")
	l.Append(sim.Never, "ids", "[1.000500ms] spec id=0xffffffff: unknown identifier")
	var prev [32]byte
	for i, e := range l.Entries() {
		if want := refHash(prev, e.At, e.Source, e.Event); e.Hash() != want {
			t.Fatalf("entry %d hash %x, want %x", i, e.Hash(), want)
		}
		prev = e.Hash()
	}
}

// TestAuditAppendSteadyStateAllocs pins the chain's hot path: once the
// entry array and the hash scratch are warm, appending and verifying
// allocate nothing.
func TestAuditAppendSteadyStateAllocs(t *testing.T) {
	l := New(nil)
	l.MarkBaseline()
	fill := func() {
		for i := 0; i < 64; i++ {
			l.Append(sim.Time(i)*sim.Millisecond, "ids", "[1.000ms] spec id=0x123: unknown identifier")
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(100, func() {
		l.ResetToBaseline()
		fill()
	}); allocs != 0 {
		t.Fatalf("Append steady state allocates %v per 64 entries, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := l.VerifyChain(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("VerifyChain allocates %v per 64-entry chain, want 0", allocs)
	}
}
