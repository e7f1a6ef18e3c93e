package main

import (
	"testing"

	"autosec/internal/can"
	"autosec/internal/netif"
	"autosec/internal/obs"
	"autosec/internal/sim"
)

func TestTraceEmitObsUnifiesEventSource(t *testing.T) {
	k := sim.NewKernel(1)
	bus := can.NewBus(k, "body", 500_000)
	tx := can.NewController("door")
	bus.Attach(tx)
	bus.Attach(can.NewController("rx"))
	captured := netif.Recorder(can.Netif(bus))
	for i := 0; i < 3; i++ {
		if err := tx.Send(can.Frame{ID: 0x4B0, Data: []byte{byte(i)}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTracer(64)
	emitObs(captured, tr)
	ev := tr.Events()
	if len(ev) != captured.Len() {
		t.Fatalf("obs got %d events for %d records", len(ev), captured.Len())
	}
	for i, e := range ev {
		r := captured.Records[i]
		if e.At != r.At || e.Arg1 != int64(r.Frame.ID) || tr.LabelString(e.Str) != r.Frame.Sender {
			t.Fatalf("event %d = %+v does not match record %+v", i, e, r)
		}
		if tr.LabelString(e.Name) != "frame" {
			t.Fatalf("event %d name = %q", i, tr.LabelString(e.Name))
		}
	}

	// A nil tracer is a no-op.
	emitObs(captured, nil)
}
