package ids

import (
	"strings"
	"testing"

	"autosec/internal/netif"
	"autosec/internal/sim"
	"autosec/internal/someip"
)

// Record constructors for the non-CAN media, mirroring what the netif
// adapters emit.

func frRec(at sim.Time, slot uint32, cycle uint32, sender string, dynamic bool, n int) netif.Record {
	var flags uint16
	if dynamic {
		flags = netif.FlagDynamic
	}
	return netif.Record{At: at, Frame: netif.Frame{
		Medium: netif.FlexRay, ID: slot, Aux: cycle, Flags: flags,
		Sender: sender, Payload: make([]byte, n),
	}}
}

func linRec(at sim.Time, id uint32, sender string, n int) netif.Record {
	return netif.Record{At: at, Frame: netif.Frame{
		Medium: netif.LIN, ID: id, Sender: sender, Payload: make([]byte, n),
	}}
}

func ethRec(at sim.Time, etherType uint32, src netif.HWAddr, vlan uint32, payload []byte) netif.Record {
	return netif.Record{At: at, Frame: netif.Frame{
		Medium: netif.Ethernet, ID: etherType, Src: src, Aux: vlan, Payload: payload,
	}}
}

func someipRec(at sim.Time, src netif.HWAddr, m *someip.Message) netif.Record {
	return ethRec(at, someip.EtherTypeSOMEIP, src, 1, m.Encode())
}

func traceOf(recs ...netif.Record) *netif.Trace {
	return &netif.Trace{Records: recs}
}

func mac(last byte) netif.HWAddr { return netif.HWAddr{0x02, 0, 0, 0, 0, last} }

// --- FlexRaySlotDetector ---

func TestFlexRaySlotDetectorMasquerade(t *testing.T) {
	d := NewFlexRaySlotDetector()
	d.Train(traceOf(
		frRec(0, 9, 0, "steer-ecu", false, 8),
		frRec(5*sim.Millisecond, 9, 1, "steer-ecu", false, 8),
	))
	// Intruder in an owned slot: one alert per episode.
	if as := d.Observe(nil, frRec(10*sim.Millisecond, 9, 2, "rogue", false, 8)); len(as) != 1 ||
		!strings.Contains(as[0].Reason, `owned by "steer-ecu"`) {
		t.Fatalf("alerts=%v", as)
	}
	if as := d.Observe(nil, frRec(15*sim.Millisecond, 9, 3, "rogue", false, 8)); len(as) != 0 {
		t.Fatalf("episode not deduped: %v", as)
	}
	// Conforming frame from the owner closes the episode; a later
	// violation alerts again.
	if as := d.Observe(nil, frRec(20*sim.Millisecond, 9, 4, "steer-ecu", false, 8)); len(as) != 0 {
		t.Fatalf("owner frame alerted: %v", as)
	}
	if as := d.Observe(nil, frRec(25*sim.Millisecond, 9, 5, "rogue", false, 8)); len(as) != 1 {
		t.Fatalf("episode did not rearm: %v", as)
	}
}

func TestFlexRaySlotDetectorUnassignedAndSegment(t *testing.T) {
	d := NewFlexRaySlotDetector()
	d.Train(traceOf(
		frRec(0, 5, 0, "brake-ecu", false, 8),
		frRec(3*sim.Millisecond, 70, 0, "diag", true, 6),
	))
	// Static frame in a slot nobody owned in training.
	if as := d.Observe(nil, frRec(sim.Second, 44, 0, "x", false, 8)); len(as) != 1 ||
		!strings.Contains(as[0].Reason, "unassigned slot 44") {
		t.Fatalf("alerts=%v", as)
	}
	if as := d.Observe(nil, frRec(sim.Second+1, 44, 0, "x", false, 8)); len(as) != 0 {
		t.Fatalf("unassigned episode not deduped: %v", as)
	}
	// A trained static slot must not move to the dynamic segment;
	// trained dynamic slots may keep using it.
	if as := d.Observe(nil, frRec(2*sim.Second, 5, 1, "brake-ecu", true, 8)); len(as) != 1 ||
		!strings.Contains(as[0].Reason, "dynamic segment") {
		t.Fatalf("alerts=%v", as)
	}
	if as := d.Observe(nil, frRec(2*sim.Second+1, 70, 1, "diag", true, 6)); len(as) != 0 {
		t.Fatalf("legit dynamic alerted: %v", as)
	}
}

func TestFlexRaySlotDetectorCycleRegression(t *testing.T) {
	d := NewFlexRaySlotDetector()
	d.Train(traceOf(frRec(0, 5, 7, "brake-ecu", false, 8)))
	d.Observe(nil, frRec(sim.Millisecond, 5, 8, "brake-ecu", false, 8))
	as := d.Observe(nil, frRec(2*sim.Millisecond, 5, 3, "brake-ecu", false, 8))
	if len(as) != 1 || !strings.Contains(as[0].Reason, "cycle counter regressed") {
		t.Fatalf("alerts=%v", as)
	}
}

func TestFlexRaySlotDetectorAmbiguousOwnerExempt(t *testing.T) {
	d := NewFlexRaySlotDetector()
	d.Train(traceOf(
		frRec(0, 9, 0, "a", false, 8),
		frRec(1, 9, 1, "b", false, 8),
	))
	if as := d.Observe(nil, frRec(2, 9, 2, "c", false, 8)); len(as) != 0 {
		t.Fatalf("ambiguous slot alerted: %v", as)
	}
}

// --- LINScheduleDetector ---

func linSchedule() *LINScheduleDetector {
	d := NewLINScheduleDetector()
	var recs []netif.Record
	ids := []uint32{0x10, 0x11, 0x21, 0x30}
	for round := 0; round < 3; round++ {
		for i, id := range ids {
			at := sim.Time(round*40+i*10) * sim.Millisecond
			recs = append(recs, linRec(at, id, "slave", 2))
		}
	}
	d.Train(traceOf(recs...))
	return d
}

func TestLINScheduleDetectorDeviation(t *testing.T) {
	d := linSchedule()
	d.Observe(nil, linRec(0, 0x10, "slave", 2))
	d.Observe(nil, linRec(10*sim.Millisecond, 0x11, "slave", 2))
	// 0x30 may not follow 0x11.
	as := d.Observe(nil, linRec(12*sim.Millisecond, 0x30, "rogue", 2))
	if len(as) != 1 || !strings.Contains(as[0].Reason, "schedule deviation") {
		t.Fatalf("alerts=%v", as)
	}
	// The pointer did not advance: the legitimate successor of 0x11 is
	// still clean, so one injection yields exactly one alert.
	if as := d.Observe(nil, linRec(20*sim.Millisecond, 0x21, "slave", 2)); len(as) != 0 {
		t.Fatalf("legit successor alerted: %v", as)
	}
}

func TestLINScheduleDetectorUnscheduledID(t *testing.T) {
	d := linSchedule()
	if as := d.Observe(nil, linRec(0, 0x3A, "rogue", 2)); len(as) != 1 ||
		!strings.Contains(as[0].Reason, "unscheduled frame") {
		t.Fatalf("alerts=%v", as)
	}
	if as := d.Observe(nil, linRec(1, 0x3A, "rogue", 2)); len(as) != 0 {
		t.Fatalf("unscheduled episode not deduped: %v", as)
	}
}

func TestLINScheduleDetectorUntrainedQuiet(t *testing.T) {
	d := NewLINScheduleDetector()
	if as := d.Observe(nil, linRec(0, 0x10, "slave", 2)); len(as) != 0 {
		t.Fatalf("untrained detector alerted: %v", as)
	}
}

// --- EthernetAddrDetector ---

func ethTrained() *EthernetAddrDetector {
	d := NewEthernetAddrDetector()
	d.Train(traceOf(
		ethRec(0, 0x88B6, mac(0x51), 1, make([]byte, 8)),
		ethRec(1, 0x88B7, mac(0x52), 1, make([]byte, 8)),
	))
	return d
}

func TestEthernetAddrDetectorUnknownSource(t *testing.T) {
	d := ethTrained()
	as := d.Observe(nil, ethRec(2, 0x88B6, mac(0x99), 1, make([]byte, 8)))
	if len(as) != 1 || !strings.Contains(as[0].Reason, "unknown source MAC 02:00:00:00:00:99") {
		t.Fatalf("alerts=%v", as)
	}
	if as := d.Observe(nil, ethRec(3, 0x88B6, mac(0x99), 1, make([]byte, 8))); len(as) != 0 {
		t.Fatalf("unknown-source episode not deduped: %v", as)
	}
}

func TestEthernetAddrDetectorBindingDriftAndVLAN(t *testing.T) {
	d := ethTrained()
	// Known station sending another station's traffic class.
	as := d.Observe(nil, ethRec(2, 0x88B7, mac(0x51), 1, make([]byte, 8)))
	if len(as) != 1 || !strings.Contains(as[0].Reason, "MAC binding drift") {
		t.Fatalf("alerts=%v", as)
	}
	// Known class on a new VLAN.
	as = d.Observe(nil, ethRec(3, 0x88B6, mac(0x51), 7, make([]byte, 8)))
	if len(as) != 1 || !strings.Contains(as[0].Reason, "VLAN anomaly") {
		t.Fatalf("alerts=%v", as)
	}
	// Both deduped per episode key.
	if as := d.Observe(nil, ethRec(4, 0x88B7, mac(0x51), 1, make([]byte, 8))); len(as) != 0 {
		t.Fatalf("drift episode not deduped: %v", as)
	}
}

// --- SOMEIPDetector ---

func someipTrained() *SOMEIPDetector {
	d := NewSOMEIPDetector()
	d.Train(traceOf(
		someipRec(0, mac(0x62), &someip.Message{ServiceID: 0x1234, MethodID: 0x01, Type: someip.TypeRequest}),
		someipRec(1, mac(0x62), &someip.Message{ServiceID: 0x1234, MethodID: 0x20, Type: someip.TypeSubscribe}),
		someipRec(2, mac(0x61), &someip.Message{ServiceID: 0x1234, MethodID: 0x20, Type: someip.TypeSubscribeAck}),
	))
	return d
}

func TestSOMEIPDetectorUnknownMethod(t *testing.T) {
	d := someipTrained()
	if as := d.Observe(nil, someipRec(10, mac(0x62), &someip.Message{
		ServiceID: 0x1234, MethodID: 0x7F, Type: someip.TypeRequest})); len(as) != 1 ||
		!strings.Contains(as[0].Reason, "unknown service/method") {
		t.Fatalf("alerts=%v", as)
	}
	// Learned method stays quiet.
	if as := d.Observe(nil, someipRec(11, mac(0x62), &someip.Message{
		ServiceID: 0x1234, MethodID: 0x01, Type: someip.TypeRequest})); len(as) != 0 {
		t.Fatalf("known method alerted: %v", as)
	}
}

func TestSOMEIPDetectorUnsubscribedNotification(t *testing.T) {
	d := someipTrained()
	if as := d.Observe(nil, someipRec(10, mac(0x61), &someip.Message{
		ServiceID: 0x1234, MethodID: 0x21, Type: someip.TypeNotification})); len(as) != 1 ||
		!strings.Contains(as[0].Reason, "unsubscribed notification") {
		t.Fatalf("alerts=%v", as)
	}
	// The subscribed eventgroup is fine.
	if as := d.Observe(nil, someipRec(11, mac(0x61), &someip.Message{
		ServiceID: 0x1234, MethodID: 0x20, Type: someip.TypeNotification})); len(as) != 0 {
		t.Fatalf("subscribed notify alerted: %v", as)
	}
}

func TestSOMEIPDetectorTracksLiveSubscriptions(t *testing.T) {
	d := someipTrained()
	// A new eventgroup subscribed after training is legitimate.
	d.Observe(nil, someipRec(10, mac(0x62), &someip.Message{
		ServiceID: 0x1234, MethodID: 0x22, Type: someip.TypeSubscribe}))
	if as := d.Observe(nil, someipRec(11, mac(0x61), &someip.Message{
		ServiceID: 0x1234, MethodID: 0x22, Type: someip.TypeNotification})); len(as) != 0 {
		t.Fatalf("renewed subscription alerted: %v", as)
	}
}

func TestSOMEIPDetectorSubscriptionFlood(t *testing.T) {
	d := someipTrained()
	var alerts []Alert
	for i := 0; i < 12; i++ {
		alerts = append(alerts, d.Observe(nil, someipRec(sim.Time(10+i), mac(0x62), &someip.Message{
			ServiceID: 0x1234, MethodID: uint16(0x30 + i), Type: someip.TypeSubscribe}))...)
	}
	if len(alerts) != 1 || !strings.Contains(alerts[0].Reason, "subscription flood") {
		t.Fatalf("alerts=%v", alerts)
	}
	// A fresh window rearms the flood alert.
	as := d.Observe(nil, someipRec(10+2*sim.Second, mac(0x62), &someip.Message{
		ServiceID: 0x1234, MethodID: 0x30, Type: someip.TypeSubscribe}))
	if len(as) != 0 {
		t.Fatalf("window rollover alerted: %v", as)
	}
}

func TestSOMEIPDetectorMalformed(t *testing.T) {
	d := someipTrained()
	as := d.Observe(nil, ethRec(10, someip.EtherTypeSOMEIP, mac(0x62), 1, []byte{1, 2, 3}))
	if len(as) != 1 || !strings.Contains(as[0].Reason, "malformed") {
		t.Fatalf("alerts=%v", as)
	}
	// Non-SOME/IP EtherTypes are not decoded at all.
	if as := d.Observe(nil, ethRec(11, 0x88B6, mac(0x62), 1, []byte{1, 2, 3})); len(as) != 0 {
		t.Fatalf("foreign EtherType alerted: %v", as)
	}
}
