// Package workload generates the evaluation inputs: realistic periodic
// CAN communication matrices (the traffic the IVN and IDS experiments
// run on) and drive cycles (the highway/city phases behind the paper's
// dynamic trade-off example in Section 5: "a car driving on a desolate,
// straight highway requires less data analytics ... than when driving in
// a busy city").
package workload

import (
	"math"
	"sort"
	"strconv"
	"unicode/utf8"

	"autosec/internal/can"
	"autosec/internal/netif"
	"autosec/internal/sim"
)

// MessageSpec describes one periodic CAN message.
type MessageSpec struct {
	ID     can.ID
	Period sim.Duration
	Size   int
	// Counter embeds a rolling counter in byte 0 (typical of real
	// matrices; gives the entropy detector a signal to learn).
	Counter bool
	// Sender names the transmitting ECU.
	Sender string
}

// PowertrainMatrix returns a production-shaped powertrain communication
// matrix: high-rate torque/speed traffic plus slower status messages.
func PowertrainMatrix() []MessageSpec {
	return []MessageSpec{
		{ID: 0x0C0, Period: 10 * sim.Millisecond, Size: 8, Counter: true, Sender: "engine"},
		{ID: 0x0D0, Period: 10 * sim.Millisecond, Size: 8, Counter: true, Sender: "transmission"},
		{ID: 0x100, Period: 20 * sim.Millisecond, Size: 8, Counter: true, Sender: "engine"},
		{ID: 0x120, Period: 20 * sim.Millisecond, Size: 6, Counter: true, Sender: "abs"},
		{ID: 0x1A0, Period: 50 * sim.Millisecond, Size: 8, Counter: true, Sender: "abs"},
		{ID: 0x1C0, Period: 50 * sim.Millisecond, Size: 4, Counter: false, Sender: "steering"},
		{ID: 0x260, Period: 100 * sim.Millisecond, Size: 8, Counter: true, Sender: "engine"},
		{ID: 0x2A0, Period: 100 * sim.Millisecond, Size: 8, Counter: false, Sender: "transmission"},
		{ID: 0x320, Period: 200 * sim.Millisecond, Size: 5, Counter: false, Sender: "cluster"},
		{ID: 0x3E0, Period: 500 * sim.Millisecond, Size: 8, Counter: false, Sender: "engine"},
		{ID: 0x4A0, Period: 1000 * sim.Millisecond, Size: 8, Counter: false, Sender: "diagnostics"},
		{ID: 0x520, Period: 1000 * sim.Millisecond, Size: 2, Counter: false, Sender: "cluster"},
	}
}

// BodyMatrix returns a body/comfort domain matrix (slower, smaller).
func BodyMatrix() []MessageSpec {
	return []MessageSpec{
		{ID: 0x210, Period: 50 * sim.Millisecond, Size: 4, Counter: true, Sender: "bcm"},
		{ID: 0x2D0, Period: 100 * sim.Millisecond, Size: 8, Counter: false, Sender: "doors"},
		{ID: 0x330, Period: 200 * sim.Millisecond, Size: 3, Counter: false, Sender: "climate"},
		{ID: 0x410, Period: 500 * sim.Millisecond, Size: 6, Counter: false, Sender: "lights"},
		{ID: 0x590, Period: 1000 * sim.Millisecond, Size: 8, Counter: false, Sender: "bcm"},
	}
}

// payloadFor builds a deterministic payload for the spec at sequence i.
func payloadFor(s MessageSpec, i int, rng *sim.Stream) []byte {
	b := make([]byte, s.Size)
	for j := range b {
		// Slowly varying signal bytes: sensor-like ramps with small noise.
		b[j] = byte(100 + 20*math.Sin(float64(i)/50+float64(j)))
	}
	if s.Counter && s.Size > 0 {
		b[0] = byte(i)
	}
	_ = rng
	return b
}

// StartSenders attaches one controller per unique sender to the bus and
// schedules every message in the matrix with the given start-phase jitter.
// It returns the controllers by sender name and a stop function.
func StartSenders(k *sim.Kernel, bus *can.Bus, specs []MessageSpec, jitterFrac float64) (map[string]*can.Controller, func()) {
	ctrls := make(map[string]*can.Controller)
	var stops []func()
	for _, s := range specs {
		s := s
		ctrl, ok := ctrls[s.Sender]
		if !ok {
			ctrl = can.NewController(s.Sender)
			bus.Attach(ctrl)
			ctrls[s.Sender] = ctrl
		}
		seq := 0
		js := k.Stream("workload." + s.Sender + "." + streamSuffix(s.ID))
		stopped := false
		var schedule func()
		schedule = func() {
			if stopped {
				return
			}
			_ = ctrl.Send(can.Frame{ID: s.ID, Data: payloadFor(s, seq, js)}, nil)
			seq++
			next := s.Period
			if jitterFrac > 0 {
				next = js.Jitter(s.Period, jitterFrac)
			}
			k.After(next, schedule)
		}
		k.After(js.Duration(0, s.Period), schedule)
		stops = append(stops, func() { stopped = true })
	}
	return ctrls, func() {
		for _, fn := range stops {
			fn()
		}
	}
}

// SyntheticTrace builds a trace of the matrix's CAN records directly (no
// bus), useful for fast IDS training corpora. Arbitration effects are
// ignored; frame times use ideal periods with the given jitter. Records
// are ordered by timestamp, then ID, then spec order, then each spec's
// emission order.
func SyntheticTrace(specs []MessageSpec, dur sim.Duration, seed uint64, jitterFrac float64) *netif.Trace {
	// Each spec's stream is in time order unless jitterFrac >= 1 lets a
	// step go backwards; such streams are materialized and stable-sorted
	// first. The others generate each record on demand, straight into
	// the output. A merge that takes the earliest (At, ID) head, ties to
	// the lower spec, yields the stable sort of the streams'
	// concatenation without moving records through sort's swapper.
	gens := make([]specGen, len(specs))
	size := 0
	for si, s := range specs {
		g := &gens[si]
		if jitterFrac >= 1 {
			recs := specStream(s, dur, seed, jitterFrac)
			before := func(i, j int) bool { return recs[i].At < recs[j].At }
			if !sort.SliceIsSorted(recs, before) {
				sort.SliceStable(recs, before)
			}
			g.recs, g.materialized = recs, true
			size += len(recs)
			continue
		}
		*g = newSpecGen(s, dur, seed, jitterFrac)
		size += streamCap(s, dur)
	}
	tr := &netif.Trace{Records: make([]netif.Record, 0, size)}
	for {
		best := -1
		var bestAt sim.Time
		var bestID uint32
		for si := range gens {
			at, id, ok := gens[si].head()
			if ok && (best < 0 || at < bestAt || (at == bestAt && id < bestID)) {
				best, bestAt, bestID = si, at, id
			}
		}
		if best < 0 {
			return tr
		}
		tr.Records = append(tr.Records, gens[best].next())
	}
}

// streamCap presizes one spec's stream from dur/Period (jitter moves the
// count by a record or so either way).
func streamCap(s MessageSpec, dur sim.Duration) int {
	if s.Period > 0 && dur > 0 {
		return int(dur/s.Period) + 2
	}
	return 0
}

// specGen is one spec's stream during the merge: either a materialized,
// sorted stream consumed from the front, or the generator state that
// emits the stream one record at a time in specStream's order (rng,
// next emission time, sequence index).
type specGen struct {
	recs         []netif.Record
	materialized bool

	spec   MessageSpec
	dur    sim.Duration
	jitter float64
	rng    *sim.Stream
	at     sim.Time
	i      int
}

func newSpecGen(s MessageSpec, dur sim.Duration, seed uint64, jitterFrac float64) specGen {
	rng := sim.NewStream(seed, "trace."+s.Sender+streamSuffix(s.ID))
	return specGen{spec: s, dur: dur, jitter: jitterFrac, rng: rng, at: rng.Duration(0, s.Period)}
}

// head reports the time and identifier of the stream's next record, and
// false once the stream is exhausted.
func (g *specGen) head() (sim.Time, uint32, bool) {
	if g.materialized {
		if len(g.recs) == 0 {
			return 0, 0, false
		}
		return g.recs[0].At, g.recs[0].Frame.ID, true
	}
	return g.at, uint32(g.spec.ID), g.at < g.dur
}

// next removes and returns the stream's next record.
func (g *specGen) next() netif.Record {
	if g.materialized {
		r := g.recs[0]
		g.recs = g.recs[1:]
		return r
	}
	s := &g.spec
	r := can.NetifRecord(g.at, can.Frame{ID: s.ID, Data: payloadFor(*s, g.i, g.rng)}, s.Sender)
	g.i++
	step := s.Period
	if g.jitter > 0 {
		step = g.rng.Jitter(s.Period, g.jitter)
	}
	g.at += step
	return r
}

// specStream generates one spec's records in emission order, presized
// from dur/Period.
func specStream(s MessageSpec, dur sim.Duration, seed uint64, jitterFrac float64) []netif.Record {
	recs := make([]netif.Record, 0, streamCap(s, dur))
	g := newSpecGen(s, dur, seed, jitterFrac)
	for {
		if _, _, ok := g.head(); !ok {
			return recs
		}
		recs = append(recs, g.next())
	}
}

// streamSuffix derives the per-message RNG stream-name suffix from a CAN
// ID. IDs whose naive rune encoding is lossy (the surrogate range
// 0xD800–0xDFFF, anything past the Unicode max, and U+FFFD itself, which
// is indistinguishable from a failed conversion) would all collapse to
// the replacement character and share one jitter stream; those format as
// hex instead. Valid single-rune IDs keep the historical encoding so
// existing seeds reproduce byte-identical traffic.
func streamSuffix(id can.ID) string {
	if r := rune(id); utf8.ValidRune(r) && r != utf8.RuneError {
		return string(r)
	}
	return "0x" + strconv.FormatUint(uint64(id), 16)
}

// Phase is one segment of a drive cycle.
type Phase struct {
	Name string
	// Until is the phase's end time within the cycle.
	Until sim.Time
	// PedestrianDensity in [0,1] drives the analytics requirement.
	PedestrianDensity float64
	// ThreatLevel in [0,1] models the ambient attack likelihood (dense
	// RF environment, parked-and-exposed, etc.).
	ThreatLevel float64
	// SpeedMS is the typical vehicle speed.
	SpeedMS float64
}

// Cycle is a sequence of phases; time past the last phase wraps around.
type Cycle struct {
	Phases []Phase
}

// Length is the cycle's total duration.
func (c Cycle) Length() sim.Time {
	if len(c.Phases) == 0 {
		return 0
	}
	return c.Phases[len(c.Phases)-1].Until
}

// At returns the active phase at time t (wrapping).
func (c Cycle) At(t sim.Time) Phase {
	if len(c.Phases) == 0 {
		return Phase{}
	}
	if l := c.Length(); l > 0 {
		t = t % l
	}
	for _, p := range c.Phases {
		if t < p.Until {
			return p
		}
	}
	return c.Phases[len(c.Phases)-1]
}

// HighwayCycle is a long, empty-road cruise.
func HighwayCycle() Cycle {
	return Cycle{Phases: []Phase{
		{Name: "highway", Until: 10 * sim.Minute, PedestrianDensity: 0.02, ThreatLevel: 0.1, SpeedMS: 33},
	}}
}

// CityCycle is dense urban driving.
func CityCycle() Cycle {
	return Cycle{Phases: []Phase{
		{Name: "city", Until: 10 * sim.Minute, PedestrianDensity: 0.8, ThreatLevel: 0.6, SpeedMS: 10},
	}}
}

// CommuteCycle alternates highway and city segments — the scenario behind
// the paper's dynamic trade-off discussion.
func CommuteCycle() Cycle {
	return Cycle{Phases: []Phase{
		{Name: "residential", Until: 2 * sim.Minute, PedestrianDensity: 0.5, ThreatLevel: 0.4, SpeedMS: 12},
		{Name: "highway", Until: 8 * sim.Minute, PedestrianDensity: 0.02, ThreatLevel: 0.1, SpeedMS: 33},
		{Name: "downtown", Until: 12 * sim.Minute, PedestrianDensity: 0.9, ThreatLevel: 0.7, SpeedMS: 8},
	}}
}
