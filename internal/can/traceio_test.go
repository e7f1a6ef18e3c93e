package can

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"autosec/internal/netif"
	"autosec/internal/sim"
)

func TestTraceWriteParseRoundTrip(t *testing.T) {
	orig := &netif.Trace{Records: []netif.Record{
		NetifRecord(10*sim.Millisecond, Frame{ID: 0x0C0, Data: []byte{0xDE, 0xAD}}, "engine"),
		NetifRecord(20*sim.Millisecond, Frame{ID: 0x1ABCDE01, Extended: true}, "atk"),
		NetifRecord(30*sim.Millisecond, Frame{ID: 0x7FF, Remote: true}, "x"),
		NetifRecord(40*sim.Millisecond, Frame{ID: 0x100, FD: true, BRS: true, Data: make([]byte, 12)}, "fd"),
		NetifRecord(50*sim.Millisecond, Frame{ID: 0x1}, "bad"),
	}}
	orig.Records[4].Corrupted = true
	var buf bytes.Buffer
	if err := WriteTrace(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != orig.Len() {
		t.Fatalf("len=%d", got.Len())
	}
	for i := range orig.Records {
		o, g := orig.Records[i], got.Records[i]
		if !g.Frame.Equal(&o.Frame) || g.Corrupted != o.Corrupted {
			t.Fatalf("record %d: %+v != %+v", i, g, o)
		}
		if g.At != o.At {
			t.Fatalf("record %d time %v vs %v", i, g.At, o.At)
		}
	}
}

// TestWriteTraceRejectsNonCANRecords: the candump format holds CAN frames
// only, so a LIN or Ethernet record is an error that names its index.
func TestWriteTraceRejectsNonCANRecords(t *testing.T) {
	for _, m := range []netif.Kind{netif.LIN, netif.Ethernet} {
		tr := &netif.Trace{Records: []netif.Record{
			NetifRecord(sim.Millisecond, Frame{ID: 0x100}, "ecu"),
			{At: 2 * sim.Millisecond, Frame: netif.Frame{Medium: m, ID: 0x20, Sender: "node", Payload: []byte{1}}},
		}}
		var buf bytes.Buffer
		err := WriteTrace(&buf, tr)
		if err == nil || !strings.Contains(err.Error(), "record 1") || !strings.Contains(err.Error(), m.String()) {
			t.Fatalf("%s record: err = %v, want an error naming record 1 and its medium", m, err)
		}
	}
}

func TestParseTraceSkipsCommentsAndBlank(t *testing.T) {
	in := "# header\n\n0.001 a 100 0102\n"
	tr, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 || tr.Records[0].Frame.ID != 0x100 {
		t.Fatalf("parsed %+v", tr.Records)
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := []string{
		"0.001 a 100",                            // too few fields
		"zebra a 100 01",                         // bad time
		"0.001 a ZZZ 01",                         // bad id
		"0.001 a 100 0G",                         // bad payload hex
		"0.001 a 100 01 WHAT",                    // bad flag
		"0.001 a FFFFFFFF 01",                    // id out of range (validate)
		"0.001 a 100 " + strings.Repeat("00", 9), // 9-byte classic payload
		"NaN a 100 01",                           // non-finite time
		"Inf a 100 01",                           // non-finite time
		"-1 a 100 01",                            // negative time
		"1e300 a 100 01",                         // beyond sim.Time's range
	}
	for _, in := range cases {
		if _, err := ParseTrace(strings.NewReader(in)); err == nil {
			t.Errorf("ParseTrace(%q) accepted", in)
		}
	}
}

// Property: write/parse round-trips synthetic standard frames and their
// nanosecond-resolution timestamps exactly.
func TestTraceIORoundTripProperty(t *testing.T) {
	f := func(rawID uint16, data []byte, secs uint16, ns uint32) bool {
		if len(data) > 8 {
			data = data[:8]
		}
		orig := &netif.Trace{Records: []netif.Record{NetifRecord(
			sim.Time(secs)*sim.Second+sim.Time(ns%1_000_000_000),
			Frame{ID: ID(rawID) & MaxStandardID, Data: data}, "s")}}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, orig); err != nil {
			return false
		}
		got, err := ParseTrace(&buf)
		if err != nil || got.Len() != 1 {
			return false
		}
		return got.Records[0].At == orig.Records[0].At &&
			got.Records[0].Frame.Equal(&orig.Records[0].Frame)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
