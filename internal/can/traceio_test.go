package can

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"autosec/internal/sim"
)

func TestTraceWriteParseRoundTrip(t *testing.T) {
	orig := &Trace{Records: []Record{
		{At: 10 * sim.Millisecond, Sender: "engine", Frame: Frame{ID: 0x0C0, Data: []byte{0xDE, 0xAD}}},
		{At: 20 * sim.Millisecond, Sender: "atk", Frame: Frame{ID: 0x1ABCDE01, Extended: true}},
		{At: 30 * sim.Millisecond, Sender: "x", Frame: Frame{ID: 0x7FF, Remote: true}},
		{At: 40 * sim.Millisecond, Sender: "fd", Frame: Frame{ID: 0x100, FD: true, BRS: true, Data: make([]byte, 12)}},
		{At: 50 * sim.Millisecond, Sender: "bad", Frame: Frame{ID: 0x1}, Corrupted: true},
	}}
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
		if !g.Frame.Equal(&o.Frame) || g.Sender != o.Sender || g.Corrupted != o.Corrupted {
			t.Fatalf("record %d: %+v != %+v", i, g, o)
		}
		if g.At != o.At {
			t.Fatalf("record %d time %v vs %v", i, g.At, o.At)
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
		orig := &Trace{Records: []Record{{
			At:     sim.Time(secs)*sim.Second + sim.Time(ns%1_000_000_000),
			Sender: "s",
			Frame:  Frame{ID: ID(rawID) & MaxStandardID, Data: data},
		}}}
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
