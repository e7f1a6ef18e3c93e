package netif

import (
	"sort"

	"autosec/internal/sim"
)

// Record is one observed frame with its completion time, as captured by a
// medium tap. Unlike the live Frame view, a Record owns its payload.
type Record struct {
	At        sim.Time
	Frame     Frame
	Corrupted bool
}

// Trace is an in-order log of traffic on one or more media — the
// interchange format between the medium simulations, the intrusion
// detection package and the offline tools.
type Trace struct {
	Records []Record
}

// Recorder attaches a trace-recording tap to the medium and returns the
// trace it fills.
func Recorder(m Medium) *Trace {
	t := &Trace{}
	m.Tap(func(at sim.Time, f *Frame, corrupted bool) {
		t.Records = append(t.Records, Record{At: at, Frame: f.Clone(), Corrupted: corrupted})
	})
	return t
}

// Len reports the number of records.
func (t *Trace) Len() int { return len(t.Records) }

// Keys returns the distinct (medium, ID) keys seen, sorted ascending.
// On a CAN-only trace the order is exactly ascending CAN-ID order.
func (t *Trace) Keys() []Key {
	set := make(map[Key]bool)
	for i := range t.Records {
		set[t.Records[i].Frame.Key()] = true
	}
	keys := make([]Key, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// ByKey returns the records carrying the given (medium, ID) key, in time
// order.
func (t *Trace) ByKey(k Key) []Record {
	var out []Record
	for _, r := range t.Records {
		if r.Frame.Key() == k {
			out = append(out, r)
		}
	}
	return out
}

// Intervals returns the successive inter-arrival times of the given key —
// the primary feature used by frequency-based intrusion detection.
func (t *Trace) Intervals(k Key) []sim.Duration {
	recs := t.ByKey(k)
	if len(recs) < 2 {
		return nil
	}
	out := make([]sim.Duration, 0, len(recs)-1)
	for i := 1; i < len(recs); i++ {
		out = append(out, recs[i].At-recs[i-1].At)
	}
	return out
}
