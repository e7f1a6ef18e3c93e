// Package audit provides a tamper-evident security event log: each entry
// is hash-chained to its predecessor (SHA-256), and the chain head can be
// periodically sealed with a CMAC under a SHE key, so an attacker who
// gains code execution after the fact cannot rewrite the history of how
// they got in. Forensic readiness is part of the paper's in-field story:
// a fleet operator deciding whether to issue an emergency OTA or revoke
// certificates needs trustworthy on-vehicle evidence.
package audit

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"

	"autosec/internal/obs"
	"autosec/internal/sim"
)

// Entry is one security event.
type Entry struct {
	At     sim.Time
	Source string // subsystem, e.g. "gateway", "ids", "uds"
	Event  string // free-form description

	// prev is the hash of the preceding entry (zero for the first).
	prev [32]byte
	// hash covers (prev ‖ at ‖ source ‖ 0 ‖ event); see Log.hash.
	hash [32]byte
}

// Hash returns the entry's chain hash.
func (e *Entry) Hash() [32]byte { return e.hash }

// Log is the hash-chained event log.
type Log struct {
	entries []Entry
	// scratch holds the hashed bytes of one entry; Append and VerifyChain
	// share it, so a warm log hashes without allocating.
	scratch []byte

	// seal support
	sealMAC func(msg []byte) ([]byte, error)
	seals   []Seal

	// Observability counters (nil when off): appends, seals taken, and
	// chain/seal verification failures — audit-log health at a glance.
	cAppends   *obs.Counter
	cSeals     *obs.Counter
	cChainFail *obs.Counter

	// Pooled-reuse baseline; see MarkBaseline/ResetToBaseline.
	baseSealed bool
}

// hash computes an entry's chain hash: SHA-256 over
// prev ‖ at (8 bytes, big-endian) ‖ source ‖ 0 ‖ event.
func (l *Log) hash(prev [32]byte, at sim.Time, source, event string) [32]byte {
	b := append(l.scratch[:0], prev[:]...)
	b = binary.BigEndian.AppendUint64(b, uint64(at))
	b = append(b, source...)
	b = append(b, 0)
	b = append(b, event...)
	l.scratch = b
	return sha256.Sum256(b)
}

// Instrument registers the log's health counters (audit/appends,
// audit/seals, audit/chain_failures) with the registry. A nil registry
// leaves the current binding in place, as the other subsystems'
// Instrument does; a log never instrumented has nil counters, which are
// no-ops.
func (l *Log) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	l.cAppends = reg.Counter("audit/appends")
	l.cSeals = reg.Counter("audit/seals")
	l.cChainFail = reg.Counter("audit/chain_failures")
}

// MarkBaseline seals the log's construction as the reset target for
// pooled reuse.
func (l *Log) MarkBaseline() { l.baseSealed = true }

// ResetToBaseline empties the log for pooled reuse: entries and seals
// clear (backing arrays retained, contents zeroed so no evidence leaks
// across runs). The seal MAC closure is construction wiring and
// survives, and so do the health counters: they keep counting into the
// registry the log was last Instrument-ed into.
func (l *Log) ResetToBaseline() {
	if !l.baseSealed {
		panic("audit: ResetToBaseline before MarkBaseline")
	}
	for i := range l.entries {
		l.entries[i] = Entry{}
	}
	l.entries = l.entries[:0]
	for i := range l.seals {
		l.seals[i] = Seal{}
	}
	l.seals = l.seals[:0]
}

// Seal is a MAC over the chain head at a point in time, anchoring every
// entry before it.
type Seal struct {
	At    sim.Time
	Index int // entries covered: [0, Index)
	Head  [32]byte
	MAC   []byte
}

// New creates an empty log. sealMAC may be nil (chain-only integrity).
func New(sealMAC func(msg []byte) ([]byte, error)) *Log {
	return &Log{sealMAC: sealMAC}
}

// Append records an event.
func (l *Log) Append(at sim.Time, source, event string) {
	var prev [32]byte
	if n := len(l.entries); n > 0 {
		prev = l.entries[n-1].hash
	}
	l.entries = append(l.entries, Entry{At: at, Source: source, Event: event, prev: prev, hash: l.hash(prev, at, source, event)})
	l.cAppends.Inc()
}

// Len reports the number of entries.
func (l *Log) Len() int { return len(l.entries) }

// Entries returns the log contents (callers must not mutate).
func (l *Log) Entries() []Entry { return l.entries }

// Verification errors.
var (
	ErrChainBroken = errors.New("audit: hash chain broken")
	ErrSealBroken  = errors.New("audit: seal verification failed")
	ErrNoSealer    = errors.New("audit: no seal MAC configured")
)

// VerifyChain recomputes the whole chain and reports the first
// inconsistency — any in-place edit, deletion or reorder breaks it.
func (l *Log) VerifyChain() error {
	var prev [32]byte
	for i := range l.entries {
		e := &l.entries[i]
		if e.prev != prev {
			l.cChainFail.Inc()
			return fmt.Errorf("%w: entry %d prev-hash mismatch", ErrChainBroken, i)
		}
		if l.hash(prev, e.At, e.Source, e.Event) != e.hash {
			l.cChainFail.Inc()
			return fmt.Errorf("%w: entry %d content mismatch", ErrChainBroken, i)
		}
		prev = e.hash
	}
	return nil
}

// SealNow MACs the current chain head, anchoring all entries so far.
func (l *Log) SealNow(at sim.Time) error {
	if l.sealMAC == nil {
		return ErrNoSealer
	}
	var head [32]byte
	if n := len(l.entries); n > 0 {
		head = l.entries[n-1].hash
	}
	mac, err := l.sealMAC(head[:])
	if err != nil {
		return err
	}
	l.seals = append(l.seals, Seal{At: at, Index: len(l.entries), Head: head, MAC: mac})
	l.cSeals.Inc()
	return nil
}

// Seals returns the recorded seals.
func (l *Log) Seals() []Seal { return l.seals }

// VerifySeals checks every seal against the chain and the MAC key. A
// truncation attack (dropping recent entries *and* their seal) is caught
// when the newest surviving seal no longer matches the chain position it
// claims.
func (l *Log) VerifySeals() error {
	if l.sealMAC == nil {
		return ErrNoSealer
	}
	for i, s := range l.seals {
		if s.Index > len(l.entries) {
			l.cChainFail.Inc()
			return fmt.Errorf("%w: seal %d covers %d entries, log has %d", ErrSealBroken, i, s.Index, len(l.entries))
		}
		var head [32]byte
		if s.Index > 0 {
			head = l.entries[s.Index-1].hash
		}
		if head != s.Head {
			l.cChainFail.Inc()
			return fmt.Errorf("%w: seal %d head mismatch", ErrSealBroken, i)
		}
		mac, err := l.sealMAC(head[:])
		if err != nil {
			return err
		}
		if subtle.ConstantTimeCompare(mac, s.MAC) != 1 {
			l.cChainFail.Inc()
			return fmt.Errorf("%w: seal %d MAC mismatch", ErrSealBroken, i)
		}
	}
	return nil
}

// TamperWith is the adversary's primitive for tests: edit entry i's event
// text in place (what malware cleaning its tracks would attempt).
func (l *Log) TamperWith(i int, newEvent string) {
	if i >= 0 && i < len(l.entries) {
		l.entries[i].Event = newEvent
	}
}

// Truncate drops entries from index i on (the log-wipe attack).
func (l *Log) Truncate(i int) {
	if i >= 0 && i <= len(l.entries) {
		l.entries = l.entries[:i]
	}
}
