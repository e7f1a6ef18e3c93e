package ids

import (
	"reflect"
	"testing"

	"autosec/internal/netif"
	"autosec/internal/sim"
	"autosec/internal/someip"
)

func TestRegistryRoutingOrder(t *testing.T) {
	e := NewEngine(MediumAwareDetectors()...)
	// Global detectors in install order, then the media buckets in Kind
	// order (CAN, LIN, FlexRay, Ethernet) — the deterministic routing
	// and alert merge order.
	want := []string{"frequency", "interval", "spec", "lin-schedule", "fr-slot", "eth-addr", "someip"}
	if got := e.Detectors(); !reflect.DeepEqual(got, want) {
		t.Fatalf("routing order=%v want %v", got, want)
	}
}

func TestRegistryRoutesByMedium(t *testing.T) {
	// A LIN record must never reach the FlexRay bucket and vice versa.
	frd := NewFlexRaySlotDetector()
	frd.Train(traceOf(frRec(0, 9, 0, "steer-ecu", false, 8)))
	lind := linSchedule()
	e := NewEngine(frd, lind)

	// Rogue sender in slot 9 alerts the FlexRay model only.
	as := e.Observe(frRec(sim.Second, 9, 1, "rogue", false, 8))
	if len(as) != 1 || as[0].Detector != "fr-slot" {
		t.Fatalf("alerts=%v", as)
	}
	// An unscheduled LIN ID alerts the LIN model only; the FlexRay
	// detector's slot-9 state is untouched by LIN ID 9.
	as = e.Observe(linRec(sim.Second+1, 9, "rogue", 2))
	if len(as) != 1 || as[0].Detector != "lin-schedule" {
		t.Fatalf("alerts=%v", as)
	}
}

func TestRegistryMergeOrderGlobalThenMedium(t *testing.T) {
	// One record violating both a global spec rule and the medium
	// model: the global alert must come first, install order within
	// each group preserved.
	spec := NewSpecDetector()
	spec.DLC[netif.MakeKey(netif.LIN, 0x10)] = 2
	lind := linSchedule()
	e := NewEngine(spec, lind)

	as := e.Observe(linRec(0, 0x3A, "rogue", 2)) // unknown to spec, unscheduled to LIN
	if len(as) != 2 || as[0].Detector != "spec" || as[1].Detector != "lin-schedule" {
		t.Fatalf("merge order=%v", as)
	}
	// And the engine's aggregate preserves the same order.
	if e.Alerts[0].Detector != "spec" || e.Alerts[1].Detector != "lin-schedule" {
		t.Fatalf("aggregate order=%v", e.Alerts)
	}
}

func TestRegistryCrossMediaAlertOrderDeterministic(t *testing.T) {
	// Same mixed-media stream, two engines: the alert streams must be
	// identical element for element — the property the golden tables
	// lean on.
	stream := func() []netif.Record {
		return []netif.Record{
			frRec(1, 9, 1, "rogue", false, 8),
			linRec(2, 0x3A, "rogue", 2),
			ethRec(3, 0x88B6, mac(0x99), 1, make([]byte, 8)),
			someipRec(4, mac(0x62), &someip.Message{ServiceID: 0x1234, MethodID: 0x21, Type: someip.TypeNotification}),
		}
	}
	run := func() []Alert {
		e := NewEngine(MediumAwareDetectors()...)
		e.Train(e21StyleTrace())
		for _, r := range stream() {
			e.Observe(r)
		}
		return e.Alerts
	}
	a, b := run(), b2(run)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("alert streams diverged:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("expected alerts from the violation stream")
	}
}

func b2(f func() []Alert) []Alert { return f() }

// e21StyleTrace is a small mixed-media clean trace covering all four
// media so every suite detector trains.
func e21StyleTrace() *netif.Trace {
	var recs []netif.Record
	for i := 0; i < 8; i++ {
		at := sim.Time(i) * 5 * sim.Millisecond
		recs = append(recs, frRec(at, 9, uint32(i), "steer-ecu", false, 8))
	}
	ids := []uint32{0x10, 0x11, 0x21, 0x30}
	for round := 0; round < 4; round++ {
		for i, id := range ids {
			at := sim.Time(round*40+i*10) * sim.Millisecond
			recs = append(recs, linRec(at, id, "slave", 2))
		}
	}
	for i := 0; i < 8; i++ {
		at := sim.Time(i) * 10 * sim.Millisecond
		recs = append(recs, ethRec(at, 0x88B6, mac(0x51), 1, make([]byte, 8)))
	}
	recs = append(recs,
		someipRec(sim.Second, mac(0x62), &someip.Message{ServiceID: 0x1234, MethodID: 0x01, Type: someip.TypeRequest}),
		someipRec(sim.Second+1, mac(0x62), &someip.Message{ServiceID: 0x1234, MethodID: 0x20, Type: someip.TypeSubscribe}),
		someipRec(sim.Second+2, mac(0x61), &someip.Message{ServiceID: 0x1234, MethodID: 0x20, Type: someip.TypeSubscribeAck}),
	)
	return &netif.Trace{Records: recs}
}

func TestRegistryAddForAndRemove(t *testing.T) {
	e := NewEngine()
	// Add routes a MediumDetector to its medium's bucket: LIN records
	// reach it.
	lin := NewLINScheduleDetector()
	lin.Train(&netif.Trace{Records: []netif.Record{linRec(0, 0x10, "x", 2)}})
	e.Add(lin)
	if as := e.Observe(linRec(1, 0x3A, "x", 2)); len(as) != 1 {
		t.Fatalf("bucketed detector missed its medium: %v", as)
	}
	// Remove finds detectors in media buckets too.
	if !e.Remove("lin-schedule") {
		t.Fatal("Remove failed for bucketed detector")
	}
	if e.Remove("lin-schedule") {
		t.Fatal("double Remove succeeded")
	}
}

func TestAlertStringNonCAN(t *testing.T) {
	cases := []struct {
		a    Alert
		want string
	}{
		{Alert{At: 5 * sim.Millisecond, Detector: "fr-slot", Medium: netif.FlexRay, ID: 9, Reason: "r"},
			"[5.000ms] fr-slot flexray id=0x9: r"},
		{Alert{At: sim.Second, Detector: "lin-schedule", Medium: netif.LIN, ID: 0x21, Reason: "r"},
			"[1.000000s] lin-schedule lin id=0x21: r"},
		{Alert{At: sim.Microsecond, Detector: "eth-addr", Medium: netif.Ethernet, ID: 0x88B6, Reason: "r"},
			"[1.000us] eth-addr ethernet id=0x88b6: r"},
		// The historical CAN rendering stays byte-identical: no medium tag.
		{Alert{At: sim.Second, Detector: "frequency", Medium: netif.CAN, ID: 0x100, Reason: "r"},
			"[1.000000s] frequency id=0x100: r"},
	}
	for _, c := range cases {
		if got := c.a.String(); got != c.want {
			t.Errorf("String()=%q want %q", got, c.want)
		}
	}
}

func TestEngineResetToBaselineSuiteParity(t *testing.T) {
	e := NewEngine(MediumAwareDetectors()...)
	e.MarkBaseline()
	names := e.Detectors()
	e.Train(e21StyleTrace())
	e.Observe(frRec(sim.Second, 9, 99, "rogue", false, 8))
	if len(e.Alerts) == 0 {
		t.Fatal("setup: expected an alert")
	}
	e.ResetToBaseline()
	if len(e.Alerts) != 0 || e.Observed() != 0 {
		t.Fatal("reset kept run state")
	}
	if got := e.Detectors(); !reflect.DeepEqual(got, names) {
		t.Fatalf("routing order changed across reset: %v want %v", got, names)
	}
	// Reset detectors are untrained: spec no longer knows the identifier
	// (global alert, first) and fr-slot sees an unassigned slot (bucket
	// alert, second) — the bucket survived the reset and the merge order
	// held.
	if as := e.Observe(frRec(2*sim.Second, 9, 100, "rogue", false, 8)); len(as) != 2 ||
		as[0].Detector != "spec" || as[1].Detector != "fr-slot" {
		t.Fatalf("post-reset alerts=%v", as)
	}
}

// TestRegistrySteadyStateAllocs is the CI gate on the observe hot
// path: a trained medium-aware engine fed clean mixed-media records
// must not allocate — the property that keeps the IDS viable as a tap
// on every fabric medium at fleet-scale event rates.
func TestRegistrySteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		detectors []Detector
	}{
		{"baseline", BaselineDetectors()},
		{"medium-aware", MediumAwareDetectors()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(tc.detectors...)
			e.Train(e21StyleTrace())
			recs := cleanMixedRecords()
			// Warm up: let lastAt/window state settle.
			for i := range recs {
				e.Observe(recs[i])
			}
			var at sim.Time = 10 * sim.Second
			avg := testing.AllocsPerRun(100, func() {
				for i := range recs {
					recs[i].At = at
					e.Observe(recs[i])
					at += 5 * sim.Millisecond
				}
			})
			if avg != 0 {
				t.Fatalf("observe hot path allocates: %.2f allocs per batch", avg)
			}
			if len(e.Alerts) != 0 {
				t.Fatalf("clean records alerted: %v", e.Alerts[:min(len(e.Alerts), 4)])
			}
		})
	}
}

// cleanMixedRecords returns conforming records for all four media plus
// a SOME/IP notification, matching e21StyleTrace's learned models.
func cleanMixedRecords() []netif.Record {
	return []netif.Record{
		frRec(0, 9, 0, "steer-ecu", false, 8),
		linRec(0, 0x10, "slave", 2),
		linRec(0, 0x11, "slave", 2),
		linRec(0, 0x21, "slave", 2),
		linRec(0, 0x30, "slave", 2),
		ethRec(0, 0x88B6, mac(0x51), 1, make([]byte, 8)),
		someipRec(0, mac(0x61), &someip.Message{ServiceID: 0x1234, MethodID: 0x20, Type: someip.TypeNotification}),
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkIDSObserveBaseline(b *testing.B)    { benchObserve(b, BaselineDetectors()) }
func BenchmarkIDSObserveMediumAware(b *testing.B) { benchObserve(b, MediumAwareDetectors()) }

func benchObserve(b *testing.B, ds []Detector) {
	e := NewEngine(ds...)
	e.Train(e21StyleTrace())
	recs := cleanMixedRecords()
	for i := range recs {
		e.Observe(recs[i])
	}
	var at sim.Time = 10 * sim.Second
	b.ReportAllocs()
	b.ResetTimer()
	// 5ms per record keeps every per-key interval inside the trained
	// bands, so the benchmark measures the alert-free steady state.
	for i := 0; i < b.N; i++ {
		r := recs[i%len(recs)]
		r.At = at
		e.Observe(r)
		at += 5 * sim.Millisecond
	}
}
