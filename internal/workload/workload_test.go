package workload

import (
	"testing"

	"autosec/internal/can"
	"autosec/internal/netif"
	"autosec/internal/sim"
)

func TestMatricesWellFormed(t *testing.T) {
	for _, specs := range [][]MessageSpec{PowertrainMatrix(), BodyMatrix()} {
		seen := make(map[can.ID]bool)
		for _, s := range specs {
			if s.Period <= 0 || s.Size < 1 || s.Size > 8 || s.Sender == "" {
				t.Fatalf("bad spec %+v", s)
			}
			if seen[s.ID] {
				t.Fatalf("duplicate ID %#x", s.ID)
			}
			seen[s.ID] = true
			if f := (can.Frame{ID: s.ID, Data: make([]byte, s.Size)}); f.Validate() != nil {
				t.Fatalf("invalid frame for %+v", s)
			}
		}
	}
}

func TestSyntheticTraceShape(t *testing.T) {
	specs := PowertrainMatrix()
	tr := SyntheticTrace(specs, 10*sim.Second, 1, 0.01)
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
	// Time ordered.
	for i := 1; i < tr.Len(); i++ {
		if tr.Records[i].At < tr.Records[i-1].At {
			t.Fatalf("trace out of order at %d", i)
		}
	}
	// The 10ms message appears ~1000 times; the 1s message ~10.
	fast := len(tr.ByKey(netif.MakeKey(netif.CAN, 0x0C0)))
	slow := len(tr.ByKey(netif.MakeKey(netif.CAN, 0x4A0)))
	if fast < 950 || fast > 1050 {
		t.Fatalf("fast count=%d", fast)
	}
	if slow < 8 || slow > 12 {
		t.Fatalf("slow count=%d", slow)
	}
	// Every matrix ID is present.
	if got := len(tr.Keys()); got != len(specs) {
		t.Fatalf("distinct IDs=%d, want %d", got, len(specs))
	}
}

func TestSyntheticTraceDeterministic(t *testing.T) {
	a := SyntheticTrace(PowertrainMatrix(), 2*sim.Second, 7, 0.05)
	b := SyntheticTrace(PowertrainMatrix(), 2*sim.Second, 7, 0.05)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Records {
		if a.Records[i].At != b.Records[i].At || a.Records[i].Frame.ID != b.Records[i].Frame.ID {
			t.Fatalf("records differ at %d", i)
		}
	}
}

func TestStartSendersOnBus(t *testing.T) {
	k := sim.NewKernel(1)
	bus := can.NewBus(k, "pt", 500_000)
	trace := netif.Recorder(can.Netif(bus))
	ctrls, stop := StartSenders(k, bus, PowertrainMatrix(), 0.01)
	_ = k.RunUntil(5 * sim.Second)
	stop()
	if len(ctrls) == 0 {
		t.Fatal("no controllers created")
	}
	if trace.Len() < 1000 {
		t.Fatalf("only %d frames in 5s", trace.Len())
	}
	// Bus load for this matrix at 500kbit/s is tens of percent at most.
	if l := bus.Load(); l < 0.02 || l > 0.6 {
		t.Fatalf("bus load %.3f", l)
	}
	// One controller per distinct sender.
	senders := make(map[string]bool)
	for _, s := range PowertrainMatrix() {
		senders[s.Sender] = true
	}
	if len(ctrls) != len(senders) {
		t.Fatalf("controllers=%d senders=%d", len(ctrls), len(senders))
	}
}

func TestCycleAtAndWrap(t *testing.T) {
	c := CommuteCycle()
	if got := c.At(sim.Minute).Name; got != "residential" {
		t.Fatalf("at 1m: %s", got)
	}
	if got := c.At(5 * sim.Minute).Name; got != "highway" {
		t.Fatalf("at 5m: %s", got)
	}
	if got := c.At(11 * sim.Minute).Name; got != "downtown" {
		t.Fatalf("at 11m: %s", got)
	}
	// Wraps after 12 minutes.
	if got := c.At(13 * sim.Minute).Name; got != "residential" {
		t.Fatalf("wrapped at 13m: %s", got)
	}
	if c.Length() != 12*sim.Minute {
		t.Fatalf("length=%v", c.Length())
	}
}

func TestCycleEmpty(t *testing.T) {
	var c Cycle
	if c.Length() != 0 {
		t.Fatal("empty length")
	}
	if p := c.At(sim.Second); p.Name != "" {
		t.Fatal("empty cycle phase")
	}
}

func TestCityVsHighwayShape(t *testing.T) {
	city := CityCycle().At(0)
	hwy := HighwayCycle().At(0)
	if city.PedestrianDensity <= hwy.PedestrianDensity {
		t.Fatal("city not denser than highway")
	}
	if city.SpeedMS >= hwy.SpeedMS {
		t.Fatal("city not slower than highway")
	}
}

// streamSuffix must keep the historical single-rune encoding for valid
// runes (seed compatibility) and fall back to an injective hex form for
// everything the rune conversion would collapse to U+FFFD.
func TestStreamSuffix(t *testing.T) {
	cases := []struct {
		id   can.ID
		want string
	}{
		{0x155, string(rune(0x155))}, // valid rune: legacy encoding
		{0x0C0, string(rune(0x0C0))}, // valid rune: legacy encoding
		{0xD800, "0xd800"},           // surrogate low bound
		{0xDFFF, "0xdfff"},           // surrogate high bound
		{0xFFFD, "0xfffd"},           // U+FFFD itself is ambiguous
		{0x110000, "0x110000"},       // past Unicode max
		{0xFFFFFFFF, "0xffffffff"},   // negative as rune
	}
	for _, c := range cases {
		if got := streamSuffix(c.id); got != c.want {
			t.Errorf("streamSuffix(%#x) = %q, want %q", c.id, got, c.want)
		}
	}
	// Injectivity across the lossy range: every surrogate ID gets its own
	// suffix instead of collapsing onto U+FFFD.
	seen := make(map[string]can.ID)
	for id := can.ID(0xD800); id <= 0xDFFF; id++ {
		s := streamSuffix(id)
		if prev, dup := seen[s]; dup {
			t.Fatalf("suffix %q shared by %#x and %#x", s, prev, id)
		}
		seen[s] = id
	}
}

// Two senders whose IDs both land in the surrogate range used to share
// one jitter stream (both names ended in U+FFFD) and so emitted perfectly
// correlated traffic. Pin that their traces now differ.
func TestSurrogateIDsGetDistinctStreams(t *testing.T) {
	specs := []MessageSpec{
		{ID: 0xD800, Period: 10 * sim.Millisecond, Size: 8, Sender: "ecu-a"},
		{ID: 0xD801, Period: 10 * sim.Millisecond, Size: 8, Sender: "ecu-b"},
	}
	tr := SyntheticTrace(specs, 2*sim.Second, 42, 0.2)
	a := tr.ByKey(netif.MakeKey(netif.CAN, 0xD800))
	b := tr.ByKey(netif.MakeKey(netif.CAN, 0xD801))
	if len(a) == 0 || len(b) == 0 {
		t.Fatalf("missing records: %d / %d", len(a), len(b))
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	same := true
	for i := 0; i < n; i++ {
		if a[i].At != b[i].At {
			same = false
			break
		}
	}
	if same && len(a) == len(b) {
		t.Fatal("surrogate-range IDs still share one jitter stream (identical timestamps)")
	}
}

// Equal-timestamp records must serialize in a pinned order: At, then ID,
// then insertion order. The old quicksort scrambled ties.
func TestSortTraceStableTiebreak(t *testing.T) {
	tr := &netif.Trace{}
	// Many records at few distinct timestamps, inserted in a known order,
	// with duplicate (At, ID) pairs distinguished by payload.
	rng := sim.NewStream(3, "sorttest")
	for i := 0; i < 500; i++ {
		at := sim.Time(rng.Intn(5)) * sim.Millisecond
		f := can.Frame{ID: can.ID(rng.Intn(3)), Data: []byte{byte(i), byte(i >> 8)}}
		tr.Records = append(tr.Records, can.NetifRecord(at, f, "s"))
	}
	// Reference: explicit index tiebreak on a copy.
	type keyed struct {
		rec netif.Record
		idx int
	}
	ref := make([]keyed, len(tr.Records))
	for i, r := range tr.Records {
		ref[i] = keyed{r, i}
	}
	for i := 1; i < len(ref); i++ { // insertion sort with full key: At, ID, idx
		for j := i; j > 0; j-- {
			a, b := ref[j-1], ref[j]
			before := b.rec.At < a.rec.At ||
				(b.rec.At == a.rec.At && b.rec.Frame.ID < a.rec.Frame.ID) ||
				(b.rec.At == a.rec.At && b.rec.Frame.ID == a.rec.Frame.ID && b.idx < a.idx)
			if !before {
				break
			}
			ref[j-1], ref[j] = ref[j], ref[j-1]
		}
	}
	sortTrace(tr)
	for i := range tr.Records {
		got, want := tr.Records[i], ref[i].rec
		if got.At != want.At || got.Frame.ID != want.Frame.ID ||
			len(got.Frame.Payload) != len(want.Frame.Payload) ||
			got.Frame.Payload[0] != want.Frame.Payload[0] || got.Frame.Payload[1] != want.Frame.Payload[1] {
			t.Fatalf("record %d: got (At=%v ID=%#x data=%v), want (At=%v ID=%#x data=%v)",
				i, got.At, got.Frame.ID, got.Frame.Payload, want.At, want.Frame.ID, want.Frame.Payload)
		}
	}
}

// Workload generation must be reproducible under parallel execution: N
// goroutines generating the same trace (and driving the same senders on
// private kernels) all observe identical outputs.
func TestWorkloadParallelDeterministic(t *testing.T) {
	const par = 8
	type result struct {
		synth *netif.Trace
		bus   *netif.Trace
	}
	results := make([]result, par)
	done := make(chan int, par)
	for w := 0; w < par; w++ {
		go func(w int) {
			synth := SyntheticTrace(PowertrainMatrix(), 2*sim.Second, 11, 0.05)
			k := sim.NewKernel(11)
			bus := can.NewBus(k, "pt", 500_000)
			rec := netif.Recorder(can.Netif(bus))
			_, stop := StartSenders(k, bus, PowertrainMatrix(), 0.01)
			_ = k.RunUntil(2 * sim.Second)
			stop()
			results[w] = result{synth: synth, bus: rec}
			done <- w
		}(w)
	}
	for i := 0; i < par; i++ {
		<-done
	}
	for w := 1; w < par; w++ {
		for name, pair := range map[string][2]*netif.Trace{
			"synthetic": {results[0].synth, results[w].synth},
			"bus":       {results[0].bus, results[w].bus},
		} {
			a, b := pair[0], pair[1]
			if a.Len() != b.Len() {
				t.Fatalf("%s trace: worker %d length %d != worker 0 length %d", name, w, b.Len(), a.Len())
			}
			for i := range a.Records {
				ra, rb := a.Records[i], b.Records[i]
				if ra.At != rb.At || ra.Frame.ID != rb.Frame.ID || ra.Frame.Sender != rb.Frame.Sender {
					t.Fatalf("%s trace: worker %d diverges at record %d", name, w, i)
				}
			}
		}
	}
}
