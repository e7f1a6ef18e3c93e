package can

import (
	"testing"

	"autosec/internal/obs"
	"autosec/internal/sim"
)

func TestBusInstrumentEmitsSpansAndMetrics(t *testing.T) {
	k := sim.NewKernel(1)
	bus := NewBus(k, "powertrain", 500_000)
	tr := obs.NewTracer(256)
	reg := obs.NewRegistry()
	bus.Instrument(tr, reg)

	tx := NewController("ecu")
	rx := NewController("rx")
	bus.Attach(tx)
	bus.Attach(rx)
	for i := 0; i < 5; i++ {
		if err := tx.Send(Frame{ID: 0x100, Data: []byte{byte(i)}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	var spans int
	for _, e := range tr.Events() {
		if tr.LabelString(e.Sub) != "can" || tr.LabelString(e.Name) != "tx" {
			continue
		}
		spans++
		if e.Kind != obs.Span {
			t.Fatal("tx events must be spans")
		}
		if e.Dur <= 0 {
			t.Fatalf("span duration %v, want > 0", e.Dur)
		}
		if tr.LabelString(e.Str) != "powertrain" || e.Arg1 != 0x100 {
			t.Fatalf("span payload: str=%q arg1=%#x", tr.LabelString(e.Str), e.Arg1)
		}
		if e.At+e.Dur > k.Now() {
			t.Fatal("span must end at or before the current time")
		}
	}
	if spans != 5 {
		t.Fatalf("saw %d tx spans, want 5", spans)
	}

	byKey := map[string]obs.Metric{}
	for _, m := range reg.Snapshot() {
		byKey[m.Key] = m
	}
	if m := byKey["can/powertrain/frames_ok"]; m.Value != 5 {
		t.Fatalf("frames_ok = %v, want 5", m.Value)
	}
	if m := byKey["can/powertrain/frame_time_us/count"]; m.Value != 5 {
		t.Fatalf("frame_time_us/count = %v, want 5", m.Value)
	}
	if m := byKey["can/powertrain/bits_on_wire"]; m.Value <= 0 {
		t.Fatalf("bits_on_wire = %v, want > 0", m.Value)
	}
}

func TestBusInstrumentMarksCorruptedFrames(t *testing.T) {
	k := sim.NewKernel(1)
	bus := NewBus(k, "chassis", 500_000)
	tr := obs.NewTracer(64)
	bus.Instrument(tr, nil)
	hit := false
	bus.TargetedError = func(f *Frame, sender *Controller) bool {
		if !hit {
			hit = true
			return true
		}
		return false
	}
	tx := NewController("victim")
	bus.Attach(tx)
	bus.Attach(NewController("rx"))
	if err := tx.Send(Frame{ID: 0x2A0, Data: []byte{1}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range tr.Events() {
		if tr.LabelString(e.Sub) == "can" {
			names = append(names, tr.LabelString(e.Name))
		}
	}
	// The targeted hit corrupts the first attempt; the retransmission
	// succeeds.
	if len(names) != 2 || names[0] != "tx-error" || names[1] != "tx" {
		t.Fatalf("event names = %v, want [tx-error tx]", names)
	}
}
