package ids

import (
	"fmt"
	"testing"

	"autosec/internal/netif"
	"autosec/internal/sim"
	"autosec/internal/someip"
)

// families are the eight detector constructors, indexed by the fuzz
// input's family bytes.
var families = []func() Detector{
	func() Detector { return NewFrequencyDetector() },
	func() Detector { return NewIntervalDetector() },
	func() Detector { return NewEntropyDetector() },
	func() Detector { return NewSpecDetector() },
	func() Detector { return NewFlexRaySlotDetector() },
	func() Detector { return NewLINScheduleDetector() },
	func() Detector { return NewEthernetAddrDetector() },
	func() Detector { return NewSOMEIPDetector() },
}

// resetCase is one decoded FuzzEngineResetMatchesFresh input.
type resetCase struct {
	suite      []func() Detector
	train, pre []netif.Record
	ops        []resetOp
	retrain    bool
	post       []netif.Record
}

// resetOp is a runtime change to the detector set between the pre-reset
// records: an Add, a Remove, or a policy-style replacement of one
// family.
type resetOp struct {
	family int
	kind   int // 0 Add, 1 Remove, 2 Remove then Add
}

// fuzzBytes hands out the input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// records decodes n records on every medium. IDs, senders and MACs come
// from small sets so detectors learn keys that later records repeat;
// a SOME/IP record carries a valid header.
func (b *fuzzBytes) records(n int) []netif.Record {
	kinds := []netif.Kind{netif.CAN, netif.LIN, netif.FlexRay, netif.Ethernet}
	ethTypes := []uint32{0x88B6, 0x88B7, someip.EtherTypeSOMEIP}
	msgTypes := []someip.MessageType{someip.TypeRequest, someip.TypeNotification, someip.TypeSubscribe, someip.TypeSubscribeAck}
	senders := []string{"a", "b", "c"}
	var at sim.Time
	recs := make([]netif.Record, 0, n)
	for i := 0; i < n; i++ {
		c, id := b.next(), uint32(b.next()%6)
		f := netif.Frame{Medium: kinds[c%4], ID: 0x10 + id}
		if c&0x10 != 0 && f.Medium == netif.FlexRay {
			f.Flags = netif.FlagDynamic
		}
		at += sim.Time(b.next()) * 250 * sim.Microsecond
		f.Sender = senders[b.next()%3]
		f.Aux = uint32(b.next() % 4)
		f.Src = netif.HWAddr{0x02, 0, 0, 0, 0, b.next() % 3}
		if f.Medium == netif.Ethernet {
			f.ID = ethTypes[id%3]
		}
		if f.ID == someip.EtherTypeSOMEIP && c&0x40 == 0 {
			f.Payload = (&someip.Message{ServiceID: 0x1234, MethodID: uint16(b.next() % 4),
				Type: msgTypes[b.next()%4], Payload: []byte{b.next()}}).Encode()
		} else {
			f.Payload = make([]byte, b.next()%9)
			for j := range f.Payload {
				f.Payload[j] = b.next()
			}
		}
		recs = append(recs, netif.Record{At: at, Frame: f, Corrupted: c&0x20 != 0})
	}
	return recs
}

// engine builds an engine from one fresh detector per suite constructor,
// installed in suite order.
func (c *resetCase) engine() *Engine {
	ds := make([]Detector, len(c.suite))
	for i, f := range c.suite {
		ds[i] = f()
	}
	return NewEngine(ds...)
}

func decodeResetCase(data []byte) resetCase {
	b := fuzzBytes(data)
	var c resetCase
	for i, n := 0, 1+int(b.next()%4); i < n; i++ {
		c.suite = append(c.suite, families[b.next()%8])
	}
	c.train = b.records(int(b.next() % 48))
	c.pre = b.records(int(b.next() % 48))
	for i, n := 0, int(b.next()%4); i < n; i++ {
		op := b.next()
		c.ops = append(c.ops, resetOp{family: int(op % 8), kind: int(op>>3) % 3})
	}
	c.retrain = b.next()&1 == 1
	c.post = b.records(int(b.next() % 48))
	return c
}

// FuzzEngineResetMatchesFresh is the property oracle for the in-place
// reset: an engine built from a suite, trained, fed traffic, changed at
// runtime (detectors added, removed and replaced, an entropy detector
// among them) and then ResetToBaseline must observe the later records
// exactly like an engine freshly built from the same suite — same
// detectors in the same routing order, same alerts. The committed
// corpus holds one entry per detector family plus a Remove+Add
// replacement.
func FuzzEngineResetMatchesFresh(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeResetCase(data)
		train := &netif.Trace{Records: c.train}

		e := c.engine()
		e.MarkBaseline()
		e.Train(train)
		half := len(c.pre) / 2
		for _, r := range c.pre[:half] {
			e.Observe(r)
		}
		for _, op := range c.ops {
			d := families[op.family]()
			switch op.kind {
			case 0:
				e.Add(d)
			case 1:
				e.Remove(d.Name())
			case 2:
				e.Remove(d.Name())
				e.Add(d)
			}
		}
		e.Train(train) // runtime detectors learn too, so they hold state
		for _, r := range c.pre[half:] {
			e.Observe(r)
		}
		e.ResetToBaseline()

		fresh := c.engine()
		for _, eng := range []*Engine{e, fresh} {
			if c.retrain {
				eng.Train(train)
			}
			for _, r := range c.post {
				eng.Observe(r)
			}
		}
		if got, want := fmt.Sprint(e.Detectors()), fmt.Sprint(fresh.Detectors()); got != want {
			t.Fatalf("reset engine routes %s, fresh %s", got, want)
		}
		if got, want := fmt.Sprint(e.Alerts), fmt.Sprint(fresh.Alerts); got != want || e.Observed() != fresh.Observed() {
			t.Fatalf("reset engine raised\n%s\nfresh engine raised\n%s", got, want)
		}
	})
}
