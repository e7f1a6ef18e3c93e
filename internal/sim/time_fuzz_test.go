package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// fmtTimeString is the fmt rendering Time.String replaced, kept as the
// reference AppendTo must reproduce byte for byte.
func fmtTimeString(t Time) string {
	switch {
	case t == Never:
		return "never"
	case t >= Second || t <= -Second:
		return fmt.Sprintf("%.6fs", t.Seconds())
	case t >= Millisecond || t <= -Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond || t <= -Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// checkTimeString fails t when String or AppendTo (onto a non-empty
// prefix) disagrees with the fmt reference.
func checkTimeString(t *testing.T, v Time) {
	t.Helper()
	want := fmtTimeString(v)
	if got := v.String(); got != want {
		t.Fatalf("Time(%d).String() = %q, want %q", int64(v), got, want)
	}
	if got := string(v.AppendTo([]byte("x="))); got != "x="+want {
		t.Fatalf("Time(%d).AppendTo(\"x=\") = %q, want %q", int64(v), got, "x="+want)
	}
}

// FuzzTimeString differentially fuzzes the integer renderer against the
// fmt reference. The committed corpus holds exact ties (a remainder of
// 500 ns in the millisecond and second ranges), unit boundaries,
// negatives, 2^52 and 2^53 ns and beyond, and Never.
func FuzzTimeString(f *testing.F) {
	f.Fuzz(func(t *testing.T, ns int64) { checkTimeString(t, Time(ns)) })
}

// TestTimeStringMatchesFmt pins the renderer to the fmt reference over
// 2^20 random times: uniform 64-bit values, log-uniform magnitudes of
// either sign (every unit range), and exact 500 ns ties.
func TestTimeStringMatchesFmt(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<20; i++ {
		var v int64
		switch i % 4 {
		case 0:
			v = int64(r.Uint64())
		case 1, 2:
			v = r.Int63n(int64(1) << uint(1+r.Intn(62)))
		case 3:
			v = r.Int63n(int64(1)<<uint(10+r.Intn(43)))/1000*1000 + 500
		}
		if r.Intn(2) == 0 {
			v = -v
		}
		checkTimeString(t, Time(v))
	}
}
