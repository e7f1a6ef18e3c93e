package ids

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"autosec/internal/can"
	"autosec/internal/netif"
	"autosec/internal/sim"
)

func TestEngineAddRemove(t *testing.T) {
	e := NewEngine(NewFrequencyDetector())
	e.Add(NewSpecDetector())
	got := e.Detectors()
	if len(got) != 2 || got[0] != "frequency" || got[1] != "spec" {
		t.Fatalf("detectors=%v", got)
	}
	if !e.Remove("frequency") {
		t.Fatal("Remove failed")
	}
	if e.Remove("frequency") {
		t.Fatal("double Remove succeeded")
	}
	if len(e.Detectors()) != 1 {
		t.Fatal("detector not removed")
	}
}

func TestEngineAggregatesAndNotifies(t *testing.T) {
	e := NewEngine(NewSpecDetector())
	e.Train(makeTrace(sim.Second, cleanSpecs()))
	var notified []Alert
	e.OnAlert(func(a Alert) { notified = append(notified, a) })
	e.Observe(canRec(0, 0x999, nil))
	if len(e.Alerts) != 1 || len(notified) != 1 {
		t.Fatalf("alerts=%d notified=%d", len(e.Alerts), len(notified))
	}
	if s := e.Summary(); !strings.Contains(s, "spec=1") {
		t.Fatalf("summary=%q", s)
	}
}

func TestEngineAttachMedium(t *testing.T) {
	k := sim.NewKernel(1)
	bus := can.NewBus(k, "b", 500_000)
	tx := can.NewController("legit")
	rx := can.NewController("rx")
	bus.Attach(tx)
	bus.Attach(rx)

	spec := NewSpecDetector()
	spec.DLC[netif.MakeKey(netif.CAN, 0x100)] = 0
	e := NewEngine(spec)
	e.Attach(can.Netif(bus))

	_ = tx.Send(can.Frame{ID: 0x100}, nil) // known
	_ = tx.Send(can.Frame{ID: 0x400}, nil) // unknown -> alert
	_ = k.Run()
	if len(e.Alerts) != 1 || e.Alerts[0].ID != 0x400 {
		t.Fatalf("alerts=%v", e.Alerts)
	}
}

func TestEvaluateMetrics(t *testing.T) {
	train := makeTrace(5*sim.Second, cleanSpecs())

	// Live trace: clean for 5s, then a 0x100 flood between 5s and 6s,
	// then clean again to 10s.
	live := makeTrace(10*sim.Second, cleanSpecs())
	for at := 5 * sim.Second; at < 6*sim.Second; at += sim.Millisecond {
		live.Records = append(live.Records, canRec(at, 0x100, constPayload(0)))
	}
	for i := 1; i < len(live.Records); i++ {
		for j := i; j > 0 && live.Records[j].At < live.Records[j-1].At; j-- {
			live.Records[j], live.Records[j-1] = live.Records[j-1], live.Records[j]
		}
	}

	windows := []Window{
		{Lo: 0, Hi: 5 * sim.Second, Attack: false},
		{Lo: 5 * sim.Second, Hi: 6 * sim.Second, Attack: true},
		{Lo: 6 * sim.Second, Hi: 10 * sim.Second, Attack: false},
	}
	m := Evaluate([]Detector{NewFrequencyDetector()}, train, live, windows, 200*sim.Millisecond)
	if m.TruePositives != 1 || m.FalseNegatives != 0 {
		t.Fatalf("metrics: %s", m)
	}
	if m.DetectionRate() != 1 {
		t.Fatalf("TPR=%v", m.DetectionRate())
	}
	if m.FalsePositives != 0 {
		t.Fatalf("FP=%d", m.FalsePositives)
	}
	if m.CleanWindows != 2 {
		t.Fatalf("clean windows=%d", m.CleanWindows)
	}
}

func TestMetricsDegenerate(t *testing.T) {
	var m Metrics
	if m.DetectionRate() != 0 || m.FalsePositiveRate() != 0 {
		t.Fatal("degenerate metrics not zero")
	}
	m = Metrics{TruePositives: 3, FalseNegatives: 1, FalsePositives: 2, CleanWindows: 4}
	if m.DetectionRate() != 0.75 {
		t.Fatalf("TPR=%v", m.DetectionRate())
	}
	if m.FalsePositiveRate() != 0.5 {
		t.Fatalf("FPR=%v", m.FalsePositiveRate())
	}
	if m.String() == "" {
		t.Fatal("empty String")
	}
}

// TestEntropyTapPayloadOwnership: the IDS tap feeds detectors the bus's
// own frame view, whose payload buffer the sending controller reuses as
// soon as the frame completes. The entropy detector keeps payload bytes
// across a batch, so it copies them: fed through the tap, it must raise
// exactly the alerts it raises on an owned recording of the traffic.
func TestEntropyTapPayloadOwnership(t *testing.T) {
	// Two batches whose 32 frames each carry a distinct byte (5 bits of
	// entropy, as trained), then a stuck batch (0 bits) that alerts.
	payload := func(i int) []byte {
		if i >= 64 {
			return bytes.Repeat([]byte{0x55}, 8)
		}
		return bytes.Repeat([]byte{byte(i)}, 8)
	}
	train := &netif.Trace{}
	for i := 0; i < 64; i++ {
		train.Records = append(train.Records, canRec(sim.Time(i)*sim.Millisecond, 0x100, payload(i)))
	}

	k := sim.NewKernel(1)
	bus := can.NewBus(k, "b", 500_000)
	tx := can.NewController("tx")
	bus.Attach(tx)
	recording := netif.Recorder(can.Netif(bus))
	tapped := NewEngine(NewEntropyDetector())
	tapped.Attach(can.Netif(bus))
	tapped.Train(train)
	buf := make([]byte, 8) // the sender reuses one buffer, too
	for i := 0; i < 96; i++ {
		k.At(sim.Time(i)*sim.Millisecond, func() {
			copy(buf, payload(i))
			_ = tx.Send(can.Frame{ID: 0x100, Data: buf}, nil)
		})
	}
	_ = k.Run()

	owned := NewEngine(NewEntropyDetector())
	owned.Train(train)
	for _, r := range recording.Records {
		owned.Observe(r)
	}
	if len(owned.Alerts) != 1 {
		t.Fatalf("owned recording raised %v, want the stuck batch's alert alone", owned.Alerts)
	}
	if got, want := fmt.Sprint(tapped.Alerts), fmt.Sprint(owned.Alerts); got != want {
		t.Fatalf("tap-fed entropy alerts %s, want %s", got, want)
	}
}
