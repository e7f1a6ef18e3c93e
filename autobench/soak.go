package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"autosec/internal/can"
	"autosec/internal/core"
	"autosec/internal/ethernet"
	"autosec/internal/flexray"
	"autosec/internal/gateway"
	"autosec/internal/lin"
	"autosec/internal/netif"
	"autosec/internal/sim"
	"autosec/internal/someip"
)

// vehicle-soak: one long-lived 4-zone per-zone-kernel vehicle driven in
// fixed simulated slices. Periodic CAN traffic runs in every standard and
// local domain with cross-zone flows, FlexRay, LIN, Ethernet and SOME/IP
// extras run in zone 0, a medium-aware IDS is trained on a clean capture,
// and one rogue infotainment node alternates a denied frame (gateway deny
// path, audit) with an allowed but unknown one (IDS alert, audit). Reset
// and set-up are out of the timed phase; what remains is kernel dispatch,
// bus arbitration, gateway and zonal crossings, IDS observe and the PDES
// barrier.
const (
	soakZones      = 4
	soakSlice      = 20 * sim.Millisecond
	soakCapture    = 2 * sim.Second
	// The oracle compares digests every soakCheckEvery slices and at the
	// end of the horizon; sim_digest is the first checkpoint's, 3s.
	soakCheckEvery = 150
	// soakChunk is the unit of identical work ops_per_s is measured over:
	// 50 slices, 1s of simulated time, a whole period of every traffic
	// source but the 35ms FlexRay burst.
	soakChunk  = 50
	soakSetups = 9
	soakTraced     = 500 // slices per pass in a traced run
	soakRogueEvery = 100 * sim.Millisecond
	// soakPerSecond sizes the input: slices per requested second, about
	// one second of simulation per second on a 2-core host.
	soakPerSecond = 1500
)

type soakSender struct {
	domain string
	id     can.ID
	period sim.Duration
	dlc    int
}

var soakSenders = []soakSender{
	{core.DomainPowertrain, 0x0C0, 10 * sim.Millisecond, 8},
	{core.DomainPowertrain, 0x0D0, 20 * sim.Millisecond, 8},
	{core.DomainPowertrain, 0x280, 50 * sim.Millisecond, 4}, // -> infotainment
	{core.DomainChassis, 0x300, 10 * sim.Millisecond, 8},
	{core.DomainChassis, 0x405, 20 * sim.Millisecond, 2},      // -> powertrain
	{core.DomainInfotainment, 0x155, 50 * sim.Millisecond, 8}, // -> powertrain
	{core.DomainInfotainment, 0x600, 100 * sim.Millisecond, 8},
	{"z0-body", 0x520, 50 * sim.Millisecond, 2},
	{"z1-body", 0x505, 20 * sim.Millisecond, 4}, // -> z2-body
	{"z2-body", 0x515, 20 * sim.Millisecond, 4}, // -> z1-body
	{"z3-body", 0x530, 50 * sim.Millisecond, 2},
}

// soakRules routes the cross-zone flows and keeps each domain's local
// traffic local. Without the local rules every local frame would take
// the deny-by-default path (and an audit entry); with them only the
// rogue's frame does.
func soakRules() []*gateway.Rule {
	rules := []*gateway.Rule{
		{Name: "nav", From: core.DomainInfotainment, To: []string{core.DomainPowertrain}, IDLo: 0x100, IDHi: 0x1FF, Action: gateway.Allow},
		{Name: "telemetry", From: core.DomainPowertrain, To: []string{core.DomainInfotainment}, IDLo: 0x260, IDHi: 0x3EF, Action: gateway.Allow},
		{Name: "chassis-status", From: core.DomainChassis, To: []string{core.DomainPowertrain}, IDLo: 0x400, IDHi: 0x40F, Action: gateway.Allow},
		{Name: "body-12", From: "z1-body", To: []string{"z2-body"}, IDLo: 0x500, IDHi: 0x50F, Action: gateway.Allow},
		{Name: "body-21", From: "z2-body", To: []string{"z1-body"}, IDLo: 0x510, IDHi: 0x51F, Action: gateway.Allow},
	}
	for _, l := range []struct {
		domain string
		lo, hi uint32
	}{
		{core.DomainPowertrain, 0x0C0, 0x0DF},
		{core.DomainChassis, 0x300, 0x30F},
		{core.DomainInfotainment, 0x600, 0x60F},
		{"z0-body", 0x520, 0x52F},
		{"z3-body", 0x530, 0x53F},
		{"frchassis", 0, 0x1FFFFFFF},
		{"cabin", 0, 0x1FFFFFFF},
		{"telematics", 0, 0x1FFFFFFF},
	} {
		rules = append(rules, &gateway.Rule{Name: "local-" + l.domain, From: l.domain,
			To: []string{l.domain}, IDLo: l.lo, IDHi: l.hi, Action: gateway.Allow})
	}
	return rules
}

func soakConfig(seed uint64) core.Config {
	return core.Config{
		VIN:  "AUTOBENCH-SOAK",
		Seed: seed,
		ExtraDomains: []core.DomainSpec{
			{Name: "frchassis", Kind: netif.FlexRay},
			{Name: "cabin", Kind: netif.LIN},
			{Name: "telematics", Kind: netif.Ethernet},
		},
		Zonal: &core.ZonalConfig{Zones: soakZones, PerZoneKernels: true,
			LocalDomains: []core.DomainSpec{{Name: "body", Kind: netif.CAN}}},
		IDS: &core.IDSConfig{MediumAware: true},
	}
}

// soakVehicle is a built soak vehicle plus the tracing hooks its traffic
// closures read: one track per zone kernel and the open slice span.
type soakVehicle struct {
	v      *core.Vehicle
	tracks []*Track
	slice  SpanRef
	op     int64
}

// track returns the span track of the zone owning domain (nil untraced).
func (s *soakVehicle) track(member int) *Track {
	if s.tracks == nil {
		return nil
	}
	return s.tracks[member]
}

func (s *soakVehicle) memberOf(domain string) int {
	z, _ := s.v.Zonal.ZoneOf(domain)
	return z.Member()
}

// buildSoak constructs the soak vehicle and installs its traffic. The
// capture vehicle (rogue false) runs the same clean traffic.
func buildSoak(seed uint64, rogue bool) (*soakVehicle, time.Duration, error) {
	t0 := time.Now()
	v, err := core.NewVehicle(soakConfig(seed))
	build := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	s := &soakVehicle{v: v, slice: noSpan}
	v.Zonal.SetRules(soakRules())

	for _, sd := range soakSenders {
		sd := sd
		k := v.KernelFor(sd.domain)
		m := s.memberOf(sd.domain)
		tx := can.NewController(fmt.Sprintf("ecu-%03x", uint32(sd.id)))
		v.Buses[sd.domain].Attach(tx)
		buf := make([]byte, sd.dlc)
		st := k.Stream(fmt.Sprintf("soak-%03x", uint32(sd.id)))
		k.Every(st.Duration(0, sd.period), sd.period, func() {
			buf[0]++
			tr := s.track(m)
			tr.Begin("can.Send", s.op, s.slice)
			_ = tx.Send(can.Frame{ID: sd.id, Data: buf}, nil)
			tr.End()
		})
	}
	if rogue {
		k := v.KernelFor(core.DomainInfotainment)
		m := s.memberOf(core.DomainInfotainment)
		tx := can.NewController("rogue-hu")
		v.Buses[core.DomainInfotainment].Attach(tx)
		denied := []byte{0xDE, 0xAD, 0, 0, 0, 0, 0, 0}
		unknown := []byte{0xBA, 0xD0, 0, 0}
		send := func(id can.ID, data []byte) func() {
			return func() {
				tr := s.track(m)
				tr.Begin("can.Send", s.op, s.slice)
				_ = tx.Send(can.Frame{ID: id, Data: data}, nil)
				tr.End()
			}
		}
		k.Every(soakRogueEvery/4, soakRogueEvery, send(0x0C0, denied))
		k.Every(3*soakRogueEvery/4, soakRogueEvery, send(0x1F0, unknown))
	}
	if err := s.installExtras(); err != nil {
		return nil, 0, err
	}
	return s, build, nil
}

// installExtras is the clean mixed-media traffic of zone 0: three owned
// FlexRay static slots plus a dynamic diagnostic burst, a four-entry LIN
// schedule, an Ethernet sensor stream with a heartbeat, and a SOME/IP
// service with discovery, subscription and periodic notifications.
func (s *soakVehicle) installExtras() error {
	v := s.v
	fr := v.FlexRayClusters["frchassis"]
	frK := v.KernelFor("frchassis")
	counter := func(tag byte) flexray.PublishFunc {
		return func(cycle int) []byte {
			return []byte{tag, byte(cycle >> 8), byte(cycle), 0, 0, 0, 0, tag}
		}
	}
	for _, a := range []struct {
		slot  flexray.SlotID
		owner string
		tag   byte
	}{{5, "brake-ecu", 0x05}, {9, "steer-ecu", 0x09}, {12, "susp-ecu", 0x0C}} {
		if err := fr.AssignStatic(a.slot, a.owner, counter(a.tag)); err != nil {
			return err
		}
	}
	frK.Every(2*sim.Millisecond, 35*sim.Millisecond, func() {
		_ = fr.SendDynamic(70, "diag-unit", []byte{0x46, 0x00, 0x00, 0x00, 0x00, 0x46})
	})
	if err := fr.Start(); err != nil {
		return err
	}

	cl := v.LINClusters["cabin"]
	resp := func(b byte) lin.PublishFunc {
		return func(at sim.Time) []byte { return []byte{b, b ^ 0xFF} }
	}
	for _, sl := range []struct {
		name string
		ids  []lin.FrameID
	}{{"door", []lin.FrameID{0x10, 0x11}}, {"mirror", []lin.FrameID{0x21}}, {"seat", []lin.FrameID{0x30}}} {
		slave := lin.NewSlave(sl.name)
		for _, id := range sl.ids {
			if err := slave.Publish(id, resp(byte(id))); err != nil {
				return err
			}
		}
		cl.AddSlave(slave)
	}
	cl.SetSchedule([]lin.ScheduleEntry{
		{ID: 0x10, Delay: 10 * sim.Millisecond},
		{ID: 0x11, Delay: 10 * sim.Millisecond},
		{ID: 0x21, Delay: 10 * sim.Millisecond},
		{ID: 0x30, Delay: 10 * sim.Millisecond},
	})
	if err := cl.Start(); err != nil {
		return err
	}

	ethK := v.KernelFor("telematics")
	m := s.memberOf("telematics")
	sw := v.Switches["telematics"]
	sensor := ethernet.NewHost("sensor", ethernet.LocalMAC(0x51))
	logger := ethernet.NewHost("logger", ethernet.LocalMAC(0x52))
	camera := ethernet.NewHost("camera", ethernet.LocalMAC(0x61))
	display := ethernet.NewHost("display", ethernet.LocalMAC(0x62))
	for _, h := range []*ethernet.Host{sensor, logger, camera, display} {
		sw.Connect(h, 1)
	}
	ethSend := func(h *ethernet.Host, f ethernet.Frame) func() {
		return func() {
			tr := s.track(m)
			tr.Begin("ethernet.Send", s.op, s.slice)
			_ = h.Send(f)
			tr.End()
		}
	}
	ethK.Every(3*sim.Millisecond, 250*sim.Millisecond, ethSend(logger, ethernet.Frame{
		Dst: ethernet.LocalMAC(0x51), EtherType: 0x88B7,
		Payload: []byte{0x4C, 0x4F, 0x47, 0x00, 0x00, 0x00, 0x00, 0x01}}))
	ethK.Every(5*sim.Millisecond, 10*sim.Millisecond, ethSend(sensor, ethernet.Frame{
		Dst: ethernet.LocalMAC(0x52), EtherType: 0x88B6,
		Payload: []byte{0x53, 0x45, 0x4E, 0x00, 0x00, 0x00, 0x00, 0x02}}))

	srv := someip.NewServer(ethK, camera, 0x1234)
	srv.Handle(0x01, func(p []byte) ([]byte, byte) {
		return []byte{0x4F, 0x4B, 0x00, 0x00}, someip.ReturnOK
	})
	cli := someip.NewClient(display, 7)
	cli.OnOffer(func(service uint16) {
		if service == 0x1234 {
			_ = cli.Subscribe(0x1234, 0x20)
		}
	})
	stopOffer := srv.StartOffering(500 * sim.Millisecond)
	ethK.At(1200*sim.Millisecond, stopOffer)
	ethK.At(10*sim.Millisecond, func() { _ = cli.Find(0x1234) })
	for _, at := range []sim.Time{300 * sim.Millisecond, 600 * sim.Millisecond, 900 * sim.Millisecond} {
		ethK.At(at, func() {
			_ = cli.Call(0x1234, 0x01, []byte{0x52, 0x45, 0x51, 0x00}, func(*someip.Message) {})
		})
	}
	ethK.Every(1020*sim.Millisecond, 40*sim.Millisecond, func() {
		srv.Notify(0x20, []byte{0x43, 0x41, 0x4D, 0x00})
	})
	return nil
}

// soakSetup is one complete set-up: a clean capture vehicle run to the
// capture horizon, then the soak vehicle built and its IDS trained on the
// capture. The set-up is serial, so its process CPU time (total) is its
// host time without the time the host preempted the virtual CPU.
type soakSetup struct {
	s            *soakVehicle
	total, build time.Duration
	train        time.Duration
}

func setupSoak(seed uint64, workers int) (*soakSetup, error) {
	c0 := cpuTime()
	capture, _, err := buildSoak(seed, false)
	if err != nil {
		return nil, err
	}
	recs := []*netif.Trace{}
	for _, d := range []string{core.DomainPowertrain, "frchassis", "cabin", "telematics"} {
		recs = append(recs, netif.Recorder(capture.v.Media[d]))
	}
	// The capture runs serially: its traffic is identical at any worker
	// count, and a serial run keeps set-up time free of barrier noise.
	capture.v.SetParallelism(1)
	if err := capture.v.RunUntil(soakCapture); err != nil {
		return nil, err
	}
	train := &netif.Trace{}
	for _, r := range recs {
		train.Records = append(train.Records, r.Records...)
	}
	s, build, err := buildSoak(seed, true)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	s.v.TrainIDS(train)
	trainDur := time.Since(t1)
	s.v.SetParallelism(workers)
	return &soakSetup{s: s, total: cpuTime() - c0, build: build, train: trainDur}, nil
}

// soakCounters are the cumulative simulated statistics the digest and the
// per-op counts read between slices.
type soakCounters struct {
	steps, observed, alerts, audit   int64
	framesOK, framesErr              int64
	forwarded, blocked               int64
	backbone, deliveries, ethForward int64
	perBus                           []int64
}

func readSoak(v *core.Vehicle) soakCounters {
	c := soakCounters{
		steps:      int64(v.Group.Steps()),
		observed:   v.IDS.Observed(),
		alerts:     int64(len(v.IDS.Alerts)),
		audit:      int64(v.Audit.Len()),
		backbone:   v.Zonal.BackboneFramesTotal(),
		deliveries: v.Zonal.BackboneDeliveriesTotal(),
		ethForward: v.Switches["telematics"].FramesForwarded.Value,
	}
	names := make([]string, 0, len(v.Buses))
	for n := range v.Buses {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b := v.Buses[n]
		c.framesOK += b.FramesOK.Value
		c.framesErr += b.FramesErrored.Value
		c.perBus = append(c.perBus, b.FramesOK.Value, b.FramesErrored.Value)
	}
	for _, z := range v.Zonal.Zones() {
		c.forwarded += z.GW.Forwarded.Value
		c.blocked += z.GW.Blocked.Value
	}
	return c
}

func (c soakCounters) digest() string {
	h := sha256.New()
	var b [8]byte
	for _, x := range append([]int64{c.steps, c.observed, c.alerts, c.audit, c.framesOK, c.framesErr,
		c.forwarded, c.blocked, c.backbone, c.deliveries, c.ethForward}, c.perBus...) {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// soakOracle is the serial reference's digest after each checkpoint
// slice count. A run at nproc workers must reach each of them.
type soakOracle struct {
	at      []int
	digests []string
}

// soakCheckpoints returns the slice counts after which a run of n slices
// is checked: every soakCheckEvery slices and after the last one.
func soakCheckpoints(n int) []int {
	var at []int
	for c := soakCheckEvery; ; c += soakCheckEvery {
		at = append(at, min(c, n))
		if c >= n {
			return at
		}
	}
}

// newSoakOracle runs v serially through a horizon of n slices, taking its
// digest at each checkpoint.
func newSoakOracle(v *core.Vehicle, n int) (*soakOracle, error) {
	o := &soakOracle{at: soakCheckpoints(n)}
	v.SetParallelism(1)
	for _, c := range o.at {
		if err := v.RunUntil(sim.Time(c) * soakSlice); err != nil {
			return nil, err
		}
		o.digests = append(o.digests, readSoak(v).digest())
	}
	return o, nil
}

// check is called after slice n of a run; at a checkpoint it compares the
// run's digest with the reference and fails the slices since the previous
// checkpoint on a mismatch.
func (r *soakOracle) check(out *outcome, v *core.Vehicle, n int) {
	for i, c := range r.at {
		if c != n {
			continue
		}
		prev := 0
		if i > 0 {
			prev = r.at[i-1]
		}
		if got := readSoak(v).digest(); got != r.digests[i] {
			out.failed += int64(c - prev)
			out.fail("digest after %v at nproc workers %s != serial reference %s",
				sim.Time(c)*soakSlice, got, r.digests[i])
		}
	}
}

func runSoak(rc runConfig) (*outcome, error) {
	n := rc.seconds * soakPerSecond
	if rc.trace {
		n = soakTraced
	}
	out := newOutcome(fmt.Sprintf("%d slices of %v (horizon %v), zones=%d per-zone kernels, capture=%v, digest every %v, rogue every %v",
		n, soakSlice, sim.Duration(n)*soakSlice, soakZones, soakCapture, soakCheckEvery*soakSlice, soakRogueEvery))
	// Three of the set-up vehicles are used: the timed one (or the
	// untraced pass), the traced pass and the serial oracle.
	var setups []*soakSetup
	var totals, builds, trains []float64
	for i := 0; i < soakSetups; i++ {
		su, err := setupSoak(rc.seed, rc.workers)
		if err != nil {
			return nil, err
		}
		if len(setups) < 3 {
			setups = append(setups, su)
		}
		totals = append(totals, su.total.Seconds())
		builds = append(builds, float64(su.build)/1e6)
		trains = append(trains, float64(su.train)/1e6)
	}
	out.setupS = median(totals)
	out.layers["core.build_ms"] = median(builds)
	out.layers["ids.train_ms"] = median(trains)

	// Oracle, before the timed phase: the third vehicle runs serially
	// through the whole horizon; the timed vehicle must reach the same
	// simulated state at every checkpoint at nproc workers.
	oracle, err := newSoakOracle(setups[2].s.v, n)
	if err != nil {
		return nil, err
	}
	out.digest = oracle.digests[0]
	out.endDigest = oracle.digests[len(oracle.digests)-1]
	out.endAt = (sim.Time(n) * soakSlice).String()
	setups = setups[:2]

	if rc.trace {
		return traceSoak(rc, out, oracle, setups[0].s, setups[1].s)
	}
	s := setups[0].s
	setups = nil
	if rc.check {
		for i := 1; i <= n; i++ {
			if err := s.v.RunUntil(sim.Time(i) * soakSlice); err != nil {
				return nil, err
			}
			out.attempted++
			oracle.check(out, s.v, i)
		}
		return out, nil
	}

	var hist durHist
	var timed, chunk time.Duration
	var alloc uint64
	before := readSoak(s.v)
	for i := 1; i <= n; i++ {
		m0 := readMem()
		t0 := time.Now()
		err := s.v.RunUntil(sim.Time(i) * soakSlice)
		d := time.Since(t0)
		m1 := readMem()
		timed += d
		chunk += d
		alloc += m1.allocBytes - m0.allocBytes
		hist.add(d)
		if i%soakChunk == 0 {
			out.rates = append(out.rates, soakChunk/chunk.Seconds())
			chunk = 0
		}
		out.attempted++
		if err != nil {
			out.failed++
			out.fail("slice %d: %v", i, err)
		}
		oracle.check(out, s.v, i)
	}
	after := readSoak(s.v)
	out.heapLiveMB = liveHeapMB()
	runtime.KeepAlive(s)
	ops := float64(n)
	out.ops, out.timed, out.allocBytes, out.hist = ops, timed, alloc, &hist
	simSeconds := ops * soakSlice.Seconds()
	out.extra("sim_x_realtime", simSeconds/timed.Seconds(), "x")
	out.extra("sim_events_per_s", float64(after.steps-before.steps)/timed.Seconds(), "1/s")
	return out, nil
}

// traceSoak runs a fixed number of slices untraced on one vehicle, then
// the same slices traced on an identical vehicle.
func traceSoak(rc runConfig, out *outcome, oracle *soakOracle, plain, traced *soakVehicle) (*outcome, error) {
	run := func(s *soakVehicle, coord *Track) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < soakTraced; i++ {
			s.op = int64(i)
			s.slice = coord.Begin("sim.RunUntil", int64(i), noSpan)
			err := s.v.RunUntil(sim.Time(i+1) * soakSlice)
			coord.End()
			if err != nil {
				return 0, err
			}
			if slices.Contains(oracle.at, i+1) {
				coord.Begin("bench.check", int64(i), noSpan)
				oracle.check(out, s.v, i+1)
				coord.End()
			}
		}
		return time.Since(t0), nil
	}
	untracedWall, err := run(plain, nil)
	if err != nil {
		return nil, err
	}
	out.attempted += soakTraced

	rec := NewRecorder(rc.profile != nil)
	rec.Label("sim.RunUntil", "can.Send", "ethernet.Send", "bench.check")
	coord := rec.NewTrack("coordinator", 1, "")
	members := traced.v.Group.Members()
	w := min(rc.workers, members)
	traced.tracks = make([]*Track, members)
	for i := range traced.tracks {
		traced.tracks[i] = rec.NewTrack(fmt.Sprintf("zone kernel %d", i), 1/float64(w), "sim.RunUntil")
	}
	before := readSoak(traced.v)
	if err := rc.profile.start(); err != nil {
		return nil, err
	}
	passStart := rec.Now()
	if _, err := run(traced, coord); err != nil {
		return nil, err
	}
	passWall := rec.Now() - passStart
	rc.profile.stop()
	after := readSoak(traced.v)
	out.attempted += soakTraced

	ops := float64(soakTraced)
	ls := rec.Layers()
	L := out.layers
	runL := layerOf(ls, "sim.RunUntil")
	L["sim.run_us"] = meanUS(runL)
	L["sim.run_self_us"] = meanSelfUS(runL)
	steps := float64(after.steps - before.steps)
	L["sim.steps_per_op"] = steps / ops
	L["sim.ns_per_step"] = float64(runL.Total) / steps
	L["can.send_ns"] = meanUS(layerOf(ls, "can.Send")) * 1e3
	L["can.frames_ok_per_op"] = float64(after.framesOK-before.framesOK) / ops
	L["can.frames_errored"] = float64(after.framesErr - before.framesErr)
	L["gateway.forwarded_per_op"] = float64(after.forwarded-before.forwarded) / ops
	L["gateway.blocked_per_op"] = float64(after.blocked-before.blocked) / ops
	L["zonal.backbone_frames_per_op"] = float64(after.backbone-before.backbone) / ops
	L["ethernet.frames_forwarded_per_op"] = float64(after.ethForward-before.ethForward) / ops
	L["ids.observed_per_op"] = float64(after.observed-before.observed) / ops
	L["ids.alerts"] = float64(after.alerts - before.alerts)
	out.finishTrace(rc, rec, ls, passWall, untracedWall)
	return out, nil
}
