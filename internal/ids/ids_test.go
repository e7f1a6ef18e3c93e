package ids

import (
	"strings"
	"testing"

	"autosec/internal/netif"
	"autosec/internal/sim"
)

// syntheticTrace builds a trace of periodic IDs over the duration. Each
// spec is (id, period, payload generator).
type txSpec struct {
	id      uint32
	period  sim.Duration
	payload func(i int) []byte
}

// canRec builds a CAN-medium record for detector tests.
func canRec(at sim.Time, id uint32, data []byte) netif.Record {
	return netif.Record{At: at, Frame: netif.Frame{Medium: netif.CAN, ID: id, Priority: id, Payload: data}}
}

func makeTrace(dur sim.Duration, specs []txSpec) *netif.Trace {
	tr := &netif.Trace{}
	for _, s := range specs {
		i := 0
		for at := sim.Time(0); at < dur; at += s.period {
			tr.Records = append(tr.Records, canRec(at, s.id, s.payload(i)))
			i++
		}
	}
	// Sort by time (stable merge of the periodic streams).
	for i := 1; i < len(tr.Records); i++ {
		for j := i; j > 0 && tr.Records[j].At < tr.Records[j-1].At; j-- {
			tr.Records[j], tr.Records[j-1] = tr.Records[j-1], tr.Records[j]
		}
	}
	return tr
}

func counterPayload(i int) []byte { return []byte{byte(i), byte(i >> 8), 0x10, 0x20} }
func constPayload(i int) []byte   { return []byte{0x01, 0x02, 0x03, 0x04} }

func cleanSpecs() []txSpec {
	return []txSpec{
		{0x100, 10 * sim.Millisecond, counterPayload},
		{0x200, 20 * sim.Millisecond, constPayload},
		{0x300, 100 * sim.Millisecond, counterPayload},
	}
}

func replay(t *testing.T, d Detector, train, live *netif.Trace) []Alert {
	t.Helper()
	d.Train(train)
	var alerts []Alert
	for i := range live.Records {
		alerts = append(alerts, d.Observe(nil, live.Records[i])...)
	}
	return alerts
}

func TestFrequencyDetectorCleanTrafficQuiet(t *testing.T) {
	train := makeTrace(5*sim.Second, cleanSpecs())
	live := makeTrace(5*sim.Second, cleanSpecs())
	alerts := replay(t, NewFrequencyDetector(), train, live)
	if len(alerts) != 0 {
		t.Fatalf("false positives on clean traffic: %v", alerts[0])
	}
}

func TestFrequencyDetectorFlood(t *testing.T) {
	train := makeTrace(5*sim.Second, cleanSpecs())
	// Live: same plus a flood of 0x100 at 1ms period (10x rate).
	specs := append(cleanSpecs(), txSpec{0x100, sim.Millisecond, constPayload})
	live := makeTrace(5*sim.Second, specs)
	alerts := replay(t, NewFrequencyDetector(), train, live)
	if len(alerts) == 0 {
		t.Fatal("flood not detected")
	}
	for _, a := range alerts {
		if a.ID != 0x100 {
			t.Fatalf("alert on wrong ID: %v", a)
		}
		if !strings.Contains(a.Reason, "rate high") {
			t.Fatalf("unexpected reason: %v", a)
		}
	}
}

func TestFrequencyDetectorSuspension(t *testing.T) {
	train := makeTrace(5*sim.Second, cleanSpecs())
	// Live: 0x200 disappears entirely.
	live := makeTrace(5*sim.Second, []txSpec{
		{0x100, 10 * sim.Millisecond, counterPayload},
		{0x300, 100 * sim.Millisecond, counterPayload},
	})
	alerts := replay(t, NewFrequencyDetector(), train, live)
	found := false
	for _, a := range alerts {
		if a.ID == 0x200 && strings.Contains(a.Reason, "rate low") {
			found = true
		}
	}
	if !found {
		t.Fatalf("suspension of 0x200 not detected (%d alerts)", len(alerts))
	}
}

func TestIntervalDetectorInjection(t *testing.T) {
	train := makeTrace(5*sim.Second, cleanSpecs())
	live := makeTrace(5*sim.Second, cleanSpecs())
	// Inject 20 frames of 0x100 offset 1ms after legitimate ones.
	for i := 0; i < 20; i++ {
		live.Records = append(live.Records,
			canRec(sim.Time(i)*100*sim.Millisecond+sim.Millisecond, 0x100, []byte{0xBA, 0xD0, 0, 0}))
	}
	// Re-sort.
	for i := 1; i < len(live.Records); i++ {
		for j := i; j > 0 && live.Records[j].At < live.Records[j-1].At; j-- {
			live.Records[j], live.Records[j-1] = live.Records[j-1], live.Records[j]
		}
	}
	alerts := replay(t, NewIntervalDetector(), train, live)
	if len(alerts) < 15 {
		t.Fatalf("interval detector caught %d/20 injections", len(alerts))
	}
	clean := replay(t, NewIntervalDetector(), train, makeTrace(5*sim.Second, cleanSpecs()))
	if len(clean) != 0 {
		t.Fatalf("interval false positives: %d", len(clean))
	}
}

func TestIntervalDetectorIgnoresAperiodicIDs(t *testing.T) {
	// An ID with <3 training occurrences is not modelled.
	train := &netif.Trace{Records: []netif.Record{
		canRec(0, 0x50, nil),
		canRec(sim.Second, 0x50, nil),
	}}
	d := NewIntervalDetector()
	d.Train(train)
	a := d.Observe(nil, canRec(2*sim.Second, 0x50, nil))
	b := d.Observe(nil, canRec(2*sim.Second+1, 0x50, nil))
	if len(a)+len(b) != 0 {
		t.Fatal("aperiodic ID raised interval alerts")
	}
}

// TestIntervalTrainMatchesTraceIntervals pins the one-pass Train to the
// per-key definition: each modelled key's period is the median of
// Trace.Intervals for that key, and keys with fewer than 3 intervals stay
// unmodelled. Jittered periods make the medians non-trivial, and a LIN
// record sharing a CAN identifier checks that keys stay per medium.
func TestIntervalTrainMatchesTraceIntervals(t *testing.T) {
	rnd := sim.NewStream(3, "train")
	tr := &netif.Trace{}
	for at := sim.Time(0); at < 2*sim.Second; at += sim.Millisecond {
		if id := uint32(0x100 + rnd.Intn(4)); rnd.Intn(3) == 0 {
			tr.Records = append(tr.Records, canRec(at, id, nil))
		}
		if rnd.Intn(50) == 0 {
			rec := canRec(at, 0x100, nil)
			rec.Frame.Medium = netif.LIN
			tr.Records = append(tr.Records, rec)
		}
	}
	tr.Records = append(tr.Records, canRec(2*sim.Second, 0x7FF, nil), canRec(3*sim.Second, 0x7FF, nil))
	d := NewIntervalDetector()
	d.Train(tr)
	want := map[netif.Key]sim.Duration{}
	for _, k := range tr.Keys() {
		ivs := tr.Intervals(k)
		if len(ivs) < 3 {
			continue
		}
		var s sim.Summary
		for _, iv := range ivs {
			s.Observe(float64(iv))
		}
		want[k] = sim.Duration(s.Quantile(0.5))
	}
	if len(want) != 5 || len(d.period) != len(want) {
		t.Fatalf("modelled %d keys, want %d (of 6 in the trace)", len(d.period), len(want))
	}
	for k, p := range want {
		if d.period[k] != p {
			t.Fatalf("key %v: period %v, want %v", k, d.period[k], p)
		}
	}
}

// TestIntervalDetectorStateBoundedByModel pins that a spray of
// unmodelled identifiers cannot grow the detector: last-seen times are
// kept only for keys learned in training, so an untrained detector keeps
// none and a trained one no more than its model has.
func TestIntervalDetectorStateBoundedByModel(t *testing.T) {
	spray := func(d *IntervalDetector) {
		for i := 0; i < 10000; i++ {
			rec := canRec(sim.Time(i)*sim.Microsecond, 0x10000+uint32(i), nil)
			rec.Frame.Flags = netif.FlagExtended
			if a := d.Observe(nil, rec); len(a) != 0 {
				t.Fatalf("unmodelled key raised %v", a)
			}
		}
	}
	untrained := NewIntervalDetector()
	spray(untrained)
	if n := len(untrained.lastAt); n != 0 {
		t.Fatalf("untrained detector holds %d last-seen times, want 0", n)
	}
	trained := NewIntervalDetector()
	trained.Train(makeTrace(5*sim.Second, cleanSpecs()))
	spray(trained)
	for i := range 3 {
		trained.Observe(nil, canRec(5*sim.Second+sim.Time(i)*sim.Second, cleanSpecs()[i].id, nil))
	}
	if n, m := len(trained.lastAt), len(trained.period); n > m {
		t.Fatalf("trained detector holds %d last-seen times for %d modelled keys", n, m)
	}
}

func TestEntropyDetectorFuzzing(t *testing.T) {
	train := makeTrace(10*sim.Second, cleanSpecs())
	// Live: 0x200's constant payload replaced by random bytes.
	rnd := sim.NewStream(1, "fuzz")
	live := makeTrace(10*sim.Second, []txSpec{
		{0x100, 10 * sim.Millisecond, counterPayload},
		{0x200, 20 * sim.Millisecond, func(i int) []byte {
			b := make([]byte, 4)
			rnd.Bytes(b)
			return b
		}},
		{0x300, 100 * sim.Millisecond, counterPayload},
	})
	alerts := replay(t, NewEntropyDetector(), train, live)
	if len(alerts) == 0 {
		t.Fatal("fuzzing not detected")
	}
	for _, a := range alerts {
		if a.ID != 0x200 {
			t.Fatalf("entropy alert on wrong ID: %v", a)
		}
	}
	clean := replay(t, NewEntropyDetector(), train, makeTrace(10*sim.Second, cleanSpecs()))
	if len(clean) != 0 {
		t.Fatalf("entropy false positives: %d", len(clean))
	}
}

func TestSpecDetectorUnknownIDAndDLC(t *testing.T) {
	train := makeTrace(2*sim.Second, cleanSpecs())
	d := NewSpecDetector()
	d.Train(train)
	// Unknown ID.
	a := d.Observe(nil, canRec(0, 0x666, []byte{1}))
	if len(a) != 1 || !strings.Contains(a[0].Reason, "unknown") {
		t.Fatalf("unknown ID alerts: %v", a)
	}
	// Wrong DLC on a known ID.
	a = d.Observe(nil, canRec(0, 0x100, []byte{1}))
	if len(a) != 1 || !strings.Contains(a[0].Reason, "DLC") {
		t.Fatalf("DLC alerts: %v", a)
	}
	// Conforming frame is quiet.
	a = d.Observe(nil, canRec(0, 0x100, counterPayload(0)))
	if len(a) != 0 {
		t.Fatalf("conforming frame alerted: %v", a)
	}
}

func TestSpecDetectorSignalRanges(t *testing.T) {
	d := NewSpecDetector()
	k := netif.MakeKey(netif.CAN, 0x10)
	d.DLC[k] = 2
	d.Ranges[k] = []SignalRange{{Byte: 0, Lo: 0x00, Hi: 0x64}} // 0..100
	if a := d.Observe(nil, canRec(0, 0x10, []byte{50, 0})); len(a) != 0 {
		t.Fatalf("in-range alerted: %v", a)
	}
	a := d.Observe(nil, canRec(0, 0x10, []byte{200, 0}))
	if len(a) != 1 || !strings.Contains(a[0].Reason, "outside") {
		t.Fatalf("out-of-range: %v", a)
	}
}

func TestSpecDetectorExplicitConfigSkipsTraining(t *testing.T) {
	d := NewSpecDetector()
	d.DLC[netif.MakeKey(netif.CAN, 0x10)] = 2
	d.Train(makeTrace(sim.Second, cleanSpecs()))
	if len(d.DLC) != 1 {
		t.Fatal("explicit config overwritten by training")
	}
}

func TestAlertString(t *testing.T) {
	a := Alert{At: sim.Second, Detector: "spec", ID: 0x1AB, Reason: "x"}
	s := a.String()
	if !strings.Contains(s, "spec") || !strings.Contains(s, "0x1ab") {
		t.Fatalf("String()=%q", s)
	}
}
