package zonal

import (
	"fmt"
	"strings"
	"testing"

	"autosec/internal/ethernet"
	"autosec/internal/gateway"
	"autosec/internal/netif"
	"autosec/internal/obs"
	"autosec/internal/sim"
)

// recPort is a local-domain endpoint that logs every delivery with the
// owning zone's virtual time — the observable the shared-vs-partitioned
// and reset equality tests fingerprint.
type recPort struct {
	name string
	now  func() sim.Time
	log  *[]string
	recv netif.RecvFunc
}

func (p *recPort) Name() string                { return p.name }
func (p *recPort) Kind() netif.Kind            { return netif.CAN }
func (p *recPort) OnReceive(fn netif.RecvFunc) { p.recv = fn }
func (p *recPort) Send(f *netif.Frame) error {
	*p.log = append(*p.log, fmt.Sprintf("%s id=%#x pay=%x @%d", p.name, f.ID, f.Payload, p.now()))
	return nil
}

type recMedium struct {
	now  func() sim.Time
	log  *[]string
	port *recPort
}

func (m *recMedium) Kind() netif.Kind  { return netif.CAN }
func (m *recMedium) Name() string      { return "rec-can" }
func (m *recMedium) Tap(netif.TapFunc) {}
func (m *recMedium) Open(name string) (netif.Port, error) {
	m.port = &recPort{name: name, now: m.now, log: m.log}
	return m.port, nil
}

// zoneRig is one comparable zonal build: n zones, one recording CAN
// domain per zone, allow-everything routing. Shared and partitioned
// flavors use the identical topology and the identical modelled backbone
// (2us store-and-forward switch on 100 Mbit/s links).
type zoneRig struct {
	fab  *Fabric
	g    *sim.KernelGroup // nil on the shared flavor
	k    *sim.Kernel      // shared kernel (nil on the partitioned flavor)
	ins  []*recPort       // per-zone local-domain endpoints
	logs []*[]string      // per-zone delivery logs, zone order
}

const rigHop = 2 * sim.Microsecond

func newZoneRig(t testing.TB, zones int, partitioned bool, seed uint64) *zoneRig {
	t.Helper()
	r := &zoneRig{}
	if partitioned {
		r.g = sim.NewKernelGroup(seed, ethernet.TunnelLookahead(rigHop, ethernet.DefaultLinkBps))
		r.fab = NewPartitioned(r.g, rigHop, ethernet.DefaultLinkBps)
	} else {
		r.k = sim.NewKernel(seed)
		sw := ethernet.NewSwitch(r.k, "bb", rigHop)
		r.fab = New(r.k, ethernet.Netif(sw, 1))
	}
	for i := 0; i < zones; i++ {
		z, err := r.fab.AddZone(fmt.Sprintf("z%d", i))
		if err != nil {
			t.Fatal(err)
		}
		log := &[]string{}
		zk := z.Kernel()
		m := &recMedium{now: zk.Now, log: log}
		if err := z.AttachDomain(fmt.Sprintf("d%d", i), m); err != nil {
			t.Fatal(err)
		}
		r.ins = append(r.ins, m.port)
		r.logs = append(r.logs, log)
	}
	r.fab.SetRules([]*gateway.Rule{
		{Name: "open", From: "*", IDLo: 0, IDHi: 0xFFFF, Action: gateway.Allow},
	})
	return r
}

// inject schedules local-bus traffic arriving at zone i's gateway at t.
func (r *zoneRig) inject(i int, t sim.Time, id uint32, pay byte) {
	z := r.fab.Zones()[i]
	in := r.ins[i]
	f := netif.Frame{Medium: netif.CAN, ID: id, Priority: id, Payload: []byte{pay, byte(i)}}
	z.Kernel().At(t, func() { in.recv(z.Kernel().Now(), &f) })
}

func (r *zoneRig) run(t testing.TB) {
	t.Helper()
	var err error
	if r.g != nil {
		err = r.g.Run()
	} else {
		err = r.k.Run()
	}
	if err != nil {
		t.Fatal(err)
	}
}

// fingerprint concatenates per-zone delivery logs in zone order — each
// log is written only by its own zone's kernel, so the concatenation
// orders deliveries by zone, then by that zone's virtual time.
func (r *zoneRig) fingerprint() string {
	var b strings.Builder
	for i, lg := range r.logs {
		fmt.Fprintf(&b, "== zone %d (%d deliveries)\n", i, len(*lg))
		for _, line := range *lg {
			b.WriteString(line)
			b.WriteString("\n")
		}
	}
	fmt.Fprintf(&b, "backbone frames=%d deliveries=%d\n",
		r.fab.BackboneFramesTotal(), r.fab.BackboneDeliveriesTotal())
	return b.String()
}

// collisionFreeWorkload injects one frame per (zone, repetition) at
// globally unique instants, so every backbone arrival is unique in time
// and the shared and partitioned delivery orders are comparable without
// relying on tie-breaking (which legitimately differs between one kernel
// and several).
func collisionFreeWorkload(r *zoneRig, zones, reps int) {
	for i := 0; i < zones; i++ {
		for j := 0; j < reps; j++ {
			at := sim.Time(1_000_000 + i*137_000 + j*997_000)
			r.inject(i, at, uint32(0x100+i), byte(j))
		}
	}
}

// TestPartitionedMatchesSharedBackboneTiming pins the partitioned
// backbone's frame timing to the shared ethernet.Switch model: the same
// topology, rules and collision-free workload must deliver every frame to
// every zone at the same virtual instant, with the same backbone frame
// and delivery counts.
func TestPartitionedMatchesSharedBackboneTiming(t *testing.T) {
	const zones, reps = 4, 6
	shared := newZoneRig(t, zones, false, 7)
	part := newZoneRig(t, zones, true, 7)
	collisionFreeWorkload(shared, zones, reps)
	collisionFreeWorkload(part, zones, reps)
	shared.run(t)
	part.run(t)
	if s, p := shared.fingerprint(), part.fingerprint(); s != p {
		t.Fatalf("partitioned backbone diverged from shared switch:\n--- shared\n%s\n--- partitioned\n%s", s, p)
	}
	if !part.fab.Partitioned() || part.fab.Group() == nil {
		t.Fatal("partitioned rig does not report Partitioned")
	}
	if shared.fab.Partitioned() {
		t.Fatal("shared rig reports Partitioned")
	}
}

// TestRequestZoneQuarantineCrossKernel pins the semantics of the
// asynchronous containment request: it takes effect exactly one backbone
// lookahead after the requesting zone's now — frames crossing before that
// instant still deliver, frames after it are dropped at the target's
// uplink.
func TestRequestZoneQuarantineCrossKernel(t *testing.T) {
	r := newZoneRig(t, 3, true, 5)
	// Two frames from zone 0 to everyone: one whose backbone arrival
	// precedes the quarantine instant, one injected after it.
	r.inject(0, 1_000_000, 0x111, 1)
	r.inject(0, 3_000_000, 0x222, 2)
	r.fab.Zones()[1].Kernel().At(2_000_000, func() {
		if err := r.fab.RequestZoneQuarantine("d1", "d2"); err != nil {
			t.Error(err)
		}
	})
	r.run(t)
	z2 := *r.logs[2]
	if len(z2) != 1 || !strings.Contains(z2[0], "id=0x111") {
		t.Fatalf("zone 2 deliveries = %q, want exactly the pre-quarantine frame", z2)
	}
	// Zone 1 is not quarantined and must have seen both frames.
	if len(*r.logs[1]) != 2 {
		t.Fatalf("zone 1 deliveries = %q, want both frames", *r.logs[1])
	}
	// Unknown domains are reported, not panicked.
	if err := r.fab.RequestZoneQuarantine("d0", "nope"); err == nil {
		t.Fatal("quarantine of unknown target domain did not error")
	}
	if err := r.fab.RequestZoneQuarantine("nope", "d0"); err == nil {
		t.Fatal("quarantine from unknown source domain did not error")
	}
}

// TestPartitionedResetEquivalence pins the pooled-vehicle lifecycle on a
// partitioned fabric: group reset + fabric reset must replay a workload
// byte-identically to the first run, with all backbone counters rewound.
func TestPartitionedResetEquivalence(t *testing.T) {
	r := newZoneRig(t, 4, true, 11)
	r.fab.MarkBaseline()
	workload := func() {
		collisionFreeWorkload(r, 4, 5)
		r.fab.Zones()[0].Kernel().At(2_500_000, func() {
			r.fab.RequestZoneQuarantine("d0", "d3")
		})
	}
	workload()
	r.run(t)
	first := r.fingerprint()

	r.g.Reset(11)
	r.fab.ResetToBaseline()
	for _, lg := range r.logs {
		*lg = (*lg)[:0]
	}
	if n := r.fab.BackboneFramesTotal(); n != 0 {
		t.Fatalf("backbone frame total after reset = %d, want 0", n)
	}
	if n := r.fab.BackboneDeliveriesTotal(); n != 0 {
		t.Fatalf("backbone delivery total after reset = %d, want 0", n)
	}
	if r.fab.ZoneQuarantined("z3") {
		t.Fatal("quarantine survived reset")
	}
	workload()
	r.run(t)
	if second := r.fingerprint(); second != first {
		t.Fatalf("post-reset replay diverged:\n--- first\n%s\n--- second\n%s", first, second)
	}
}

// TestNewPartitionedRejectsExcessiveLookahead pins the constructor guard:
// a group promising more lookahead than the minimum backbone crossing
// would let zones outrun in-flight frames.
func TestNewPartitionedRejectsExcessiveLookahead(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPartitioned accepted a lookahead past the minimum crossing time")
		}
	}()
	g := sim.NewKernelGroup(1, ethernet.TunnelLookahead(rigHop, ethernet.DefaultLinkBps)+1)
	NewPartitioned(g, rigHop, ethernet.DefaultLinkBps)
}

// partAllocRig builds a two-zone partitioned fabric over stub local media
// with recurring cross-zone traffic on both zones' kernels.
func partAllocRig(t testing.TB) (*sim.KernelGroup, *Fabric) {
	t.Helper()
	g := sim.NewKernelGroup(3, ethernet.TunnelLookahead(rigHop, ethernet.DefaultLinkBps))
	f := NewPartitioned(g, rigHop, ethernet.DefaultLinkBps)
	var ins []*stubPort
	for i := 0; i < 2; i++ {
		z, err := f.AddZone(fmt.Sprintf("z%d", i))
		if err != nil {
			t.Fatal(err)
		}
		m := &stubMedium{kind: netif.CAN}
		if err := z.AttachDomain(fmt.Sprintf("d%d", i), m); err != nil {
			t.Fatal(err)
		}
		ins = append(ins, m.ports[0])
	}
	f.SetRules([]*gateway.Rule{
		{Name: "open", From: "*", IDLo: 0, IDHi: 0x7FF, Action: gateway.Allow},
	})
	for i := 0; i < 2; i++ {
		z := f.Zones()[i]
		in := ins[i]
		fr := netif.Frame{Medium: netif.CAN, ID: uint32(0x100 + i), Priority: uint32(0x100 + i), Payload: make([]byte, 8)}
		z.Kernel().Every(sim.Millisecond, sim.Millisecond, func() { in.recv(z.Kernel().Now(), &fr) })
	}
	return g, f
}

// TestPartitionedInterZoneSteadyStateAllocs pins the whole partitioned
// inter-zone chain — source-zone rule match, tunnel encapsulation,
// pooled inter-kernel message, destination decapsulation and delivery —
// at zero steady-state allocations per simulated window. CI gates on
// this test.
func TestPartitionedInterZoneSteadyStateAllocs(t *testing.T) {
	g, f := partAllocRig(t)
	now := sim.Time(0)
	advance := func() {
		now += 10 * sim.Millisecond
		if err := g.RunUntil(now); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		advance()
	}
	before := f.BackboneFramesTotal()
	if n := testing.AllocsPerRun(200, advance); n != 0 {
		t.Fatalf("partitioned inter-zone steady state allocates %.1f/window, want 0", n)
	}
	if f.BackboneFramesTotal() <= before {
		t.Fatal("no frames crossed the backbone during the measurement")
	}
}

// BenchmarkZonalPartitioned measures the partitioned inter-zone chain,
// pooled mailbox included, per simulated 10ms window. CI runs it with
// the same 0-allocs/op gate as BenchmarkZonalInterZone.
func BenchmarkZonalPartitioned(b *testing.B) {
	g, _ := partAllocRig(b)
	now := sim.Time(0)
	step := func() {
		now += 10 * sim.Millisecond
		if err := g.RunUntil(now); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestInstrumentZonesPerZoneProbes pins the per-zone delivery probes
// that Instrument registers on a partitioned fabric: each zone's
// zone-<name>/backbone_deliveries reads its own kernel-local counter,
// and the sum matches the fabric total.
func TestInstrumentZonesPerZoneProbes(t *testing.T) {
	const zones = 3
	r := newZoneRig(t, zones, true, 7)
	reg := obs.NewRegistry()
	r.fab.Instrument(nil, reg)
	collisionFreeWorkload(r, zones, 2)
	r.run(t)

	snap := map[string]float64{}
	for _, m := range reg.Snapshot() {
		snap[m.Key] = m.Value
	}
	var sum float64
	for i := 0; i < zones; i++ {
		key := fmt.Sprintf("zone-z%d/backbone_deliveries", i)
		v, ok := snap[key]
		if !ok {
			t.Fatalf("probe %q not registered", key)
		}
		// Every frame floods to all other zones, so each zone accepts
		// deliveries from the (zones-1) other zones' injections.
		if v == 0 {
			t.Fatalf("probe %q = 0, want ingress deliveries", key)
		}
		sum += v
	}
	if total := snap["zonal/backbone_deliveries"]; total != sum {
		t.Fatalf("fabric total %v != per-zone sum %v", total, sum)
	}
}
