package can

import (
	"testing"

	"autosec/internal/obs"
	"autosec/internal/sim"
)

func BenchmarkMarshal(b *testing.B) {
	f := Frame{ID: 0x2A5, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(&f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	f := Frame{ID: 0x2A5, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	wire, err := Marshal(&f)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCRC15(b *testing.B) {
	bits := make([]bool, 100)
	for i := range bits {
		bits[i] = i%3 == 0
	}
	for i := 0; i < b.N; i++ {
		_ = CRC15(bits)
	}
}

// wireBitsSink keeps BenchmarkClassicWireBits' result live.
var wireBitsSink int

// BenchmarkClassicWireBits times the bus timing hot path's wire-bit
// count (once per transmission) for the smallest and the largest classic
// frame shapes the simulator sends.
func BenchmarkClassicWireBits(b *testing.B) {
	for _, bc := range []struct {
		name string
		f    Frame
	}{
		{"std1", Frame{ID: 0x123, Data: []byte{0x5A}}},
		{"ext8", Frame{ID: 0x18DAF110, Extended: true, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			f := bc.f
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n, err := classicWireBits(&f)
				if err != nil {
					b.Fatal(err)
				}
				wireBitsSink = n
			}
		})
	}
}

// BenchmarkBusSaturated measures the per-frame cost of the bus data path
// under back-to-back load: a sender whose completion callback immediately
// refills the queue keeps the wire busy at 100%, with the Bernoulli bit
// error model enabled so the error path is exercised too. One iteration is
// 100ms of virtual bus time (~700 8-byte frames at 500 kbit/s).
// Allocations are reported: after warm-up the kernel and bus must not
// allocate per frame beyond the payload clone made by Send.
func BenchmarkBusSaturated(b *testing.B) {
	k := sim.NewKernel(1)
	bus := NewBus(k, "bench", 500_000)
	bus.BitErrorRate = 1e-6
	tx := NewController("tx")
	rx := NewController("rx")
	bus.Attach(tx)
	bus.Attach(rx)
	f := Frame{ID: 0x100, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	var refill func(at sim.Time)
	refill = func(at sim.Time) { _ = tx.Send(f, refill) }
	refill(0)
	_ = k.RunUntil(100 * sim.Millisecond) // warm up queues and free lists
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = k.RunUntil(k.Now() + 100*sim.Millisecond)
	}
	b.StopTimer()
	if bus.FramesOK.Value == 0 {
		b.Fatal("no frames completed")
	}
}

// BenchmarkBusSaturatedObs is BenchmarkBusSaturated with full
// observability enabled: kernel dispatch tracing, per-frame bus spans and
// the frame-time histogram. Comparing the pair measures the enabled-path
// overhead (the acceptance bar is < 10%); the disabled path is the plain
// BenchmarkBusSaturated, which must show identical allocs with obs off
// since the hook is a single nil check.
func BenchmarkBusSaturatedObs(b *testing.B) {
	k := sim.NewKernel(1)
	bus := NewBus(k, "bench", 500_000)
	bus.BitErrorRate = 1e-6
	tr := obs.NewTracer(1 << 12)
	reg := obs.NewRegistry()
	k.SetTraceSink(tr)
	bus.Instrument(tr, reg)
	tx := NewController("tx")
	rx := NewController("rx")
	bus.Attach(tx)
	bus.Attach(rx)
	f := Frame{ID: 0x100, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	var refill func(at sim.Time)
	refill = func(at sim.Time) { _ = tx.Send(f, refill) }
	refill(0)
	_ = k.RunUntil(100 * sim.Millisecond) // warm up queues, free lists and the ring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = k.RunUntil(k.Now() + 100*sim.Millisecond)
	}
	b.StopTimer()
	if bus.FramesOK.Value == 0 {
		b.Fatal("no frames completed")
	}
	if tr.Total() == 0 {
		b.Fatal("tracer saw no events")
	}
}

// BenchmarkBusSimulation measures simulated-frame throughput of the
// event-driven bus model: one virtual second of a loaded 500kbit/s bus
// per iteration (~3700 frames).
func BenchmarkBusSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(uint64(i))
		bus := NewBus(k, "bench", 500_000)
		tx := NewController("tx")
		rx := NewController("rx")
		bus.Attach(tx)
		bus.Attach(rx)
		stop := PeriodicSender(k, tx, Frame{ID: 0x100, Data: make([]byte, 8)}, 270*sim.Microsecond, 0)
		_ = k.RunUntil(sim.Second)
		stop()
		if bus.FramesOK.Value < 3000 {
			b.Fatalf("frames=%d", bus.FramesOK.Value)
		}
	}
}
