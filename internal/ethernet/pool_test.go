package ethernet

import (
	"bytes"
	"fmt"
	"testing"

	"autosec/internal/netif"
	"autosec/internal/sim"
)

// TestSwitchSteadyStateAllocs pins the switch's forwarding path at zero
// allocations per frame once its in-flight node pool is warm: a learned
// unicast crossing, a broadcast flooded to two ports under an observer,
// and a frame sent through the netif adapter.
func TestSwitchSteadyStateAllocs(t *testing.T) {
	k, sw := newNet(t)
	a := NewHost("a", LocalMAC(1))
	b := NewHost("b", LocalMAC(2))
	c := NewHost("c", LocalMAC(3))
	for _, h := range []*Host{a, b, c} {
		sw.Connect(h, 10)
	}
	got := 0
	b.OnReceive(func(sim.Time, *Frame) { got++ })
	c.OnReceive(func(sim.Time, *Frame) { got++ })
	seen := 0
	sw.Observe(func(sim.Time, *Frame, *Port) { seen++ })
	nport, err := Netif(sw, 10).Open("n")
	if err != nil {
		t.Fatal(err)
	}
	nport.OnReceive(func(sim.Time, *netif.Frame) { got++ })
	nf := netif.Frame{Medium: netif.Ethernet, ID: 0x88B5, Dst: netif.HWAddr(LocalMAC(2))}
	payload := []byte("steady state")
	nf.Payload = payload
	_ = b.Send(Frame{Dst: Broadcast, Payload: payload}) // the switch learns b
	_ = k.Run()

	for _, tc := range []struct {
		name string
		recv int // deliveries per frame
		send func() error
	}{
		{"unicast", 1, func() error { return a.Send(Frame{Dst: LocalMAC(2), Payload: payload}) }},
		{"flood", 3, func() error { return a.Send(Frame{Dst: Broadcast, Payload: payload}) }},
		{"netif", 1, func() error { return nport.Send(&nf) }},
	} {
		run := func() {
			if err := tc.send(); err != nil {
				t.Fatal(err)
			}
			_ = k.Run()
		}
		for i := 0; i < 4; i++ {
			run() // warm-up fills the node pool
		}
		got, seen = 0, 0
		allocs := testing.AllocsPerRun(100, run)
		if allocs != 0 {
			t.Errorf("%s: %v allocs per frame, want 0", tc.name, allocs)
		}
		// AllocsPerRun adds one warm-up call to its 100 runs.
		if got != 101*tc.recv || seen != 101 {
			t.Errorf("%s: %d deliveries and %d observed over 101 frames, want %d and 101",
				tc.name, got, seen, 101*tc.recv)
		}
	}
}

// TestSwitchPayloadOwnership: the switch owns a copy of every frame it
// carries, so a sender may overwrite its buffer right after Send without
// changing what observers and receivers see.
func TestSwitchPayloadOwnership(t *testing.T) {
	k, sw := newNet(t)
	a := NewHost("a", LocalMAC(1))
	b := NewHost("b", LocalMAC(2))
	c := NewHost("c", LocalMAC(3))
	for _, h := range []*Host{a, b, c} {
		sw.Connect(h, 10)
	}
	var got []string
	record := func(who string) ReceiveFunc {
		return func(_ sim.Time, f *Frame) { got = append(got, who+":"+string(f.Payload)) }
	}
	b.OnReceive(record("b"))
	c.OnReceive(record("c"))
	sw.Observe(func(_ sim.Time, f *Frame, _ *Port) { got = append(got, "tap:"+string(f.Payload)) })
	nport, err := Netif(sw, 10).Open("n")
	if err != nil {
		t.Fatal(err)
	}

	buf := []byte("first")
	_ = a.Send(Frame{Dst: Broadcast, Payload: buf})
	copy(buf, "XXXXX")
	nbuf := []byte("second")
	_ = nport.Send(&netif.Frame{Medium: netif.Ethernet, ID: 0x88B5, Dst: netif.HWAddr(LocalMAC(2)), Payload: nbuf})
	copy(nbuf, "YYYYYY")
	_ = k.Run()

	want := []string{"tap:first", "tap:second", "b:first", "c:first", "b:second", "c:second"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("delivered %q, want %q", got, want)
	}
}

// TestSwitchResetInFlight resets a switch while frames are in flight.
// Their nodes must return to the pool, so the next run creates no node,
// and the reset switch must deliver exactly what a fresh one does.
func TestSwitchResetInFlight(t *testing.T) {
	type rig struct {
		k   *sim.Kernel
		sw  *Switch
		hs  []*Host
		log *bytes.Buffer
	}
	build := func() *rig {
		k, sw := newNet(t)
		r := &rig{k: k, sw: sw, log: new(bytes.Buffer)}
		for i := 1; i <= 3; i++ {
			h := NewHost(fmt.Sprint("h", i), LocalMAC(uint32(i)))
			sw.Connect(h, 10)
			h.OnReceive(func(at sim.Time, f *Frame) {
				fmt.Fprintf(r.log, "%v %s<-%v %x\n", at, h.Name, f.Src, f.Payload)
			})
			r.hs = append(r.hs, h)
		}
		sw.MarkBaseline()
		return r
	}
	// scenario schedules a flood, the reply that teaches the switch both
	// addresses, and a burst of unicasts that overlap in the pipeline.
	scenario := func(r *rig) {
		a, b := r.hs[0], r.hs[1]
		r.k.At(0, func() { _ = a.Send(Frame{Dst: LocalMAC(2), Payload: []byte("hello")}) })
		r.k.At(sim.Time(50*sim.Microsecond), func() { _ = b.Send(Frame{Dst: LocalMAC(1), Payload: []byte("re")}) })
		r.k.At(sim.Time(100*sim.Microsecond), func() {
			for i := 0; i < 5; i++ {
				_ = a.Send(Frame{Dst: LocalMAC(2), Payload: bytes.Repeat([]byte{byte(i)}, 100*(i+1))})
			}
		})
	}

	fresh := build()
	scenario(fresh)
	_ = fresh.k.Run()

	r := build()
	scenario(r)
	_ = r.k.Run() // warm: the pool reaches the scenario's peak
	r.k.Reset(1)
	r.sw.ResetToBaseline()
	scenario(r)
	_ = r.k.RunUntil(sim.Time(120 * sim.Microsecond))
	if len(r.sw.free) == len(r.sw.nodes) {
		t.Fatal("no frame in flight at the reset point")
	}
	r.k.Reset(1)
	r.sw.ResetToBaseline()
	r.log.Reset()
	nodes := len(r.sw.nodes)
	scenario(r)
	_ = r.k.Run()
	if len(r.sw.nodes) != nodes {
		t.Fatalf("run after an in-flight reset created %d new nodes", len(r.sw.nodes)-nodes)
	}
	if r.log.String() != fresh.log.String() {
		t.Fatalf("reset switch delivered\n%s\nfresh switch delivered\n%s", r.log, fresh.log)
	}
}
