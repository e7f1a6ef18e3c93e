package ids

import (
	"fmt"
	"math/rand"
	"testing"

	"autosec/internal/netif"
	"autosec/internal/sim"
)

// fmtAlertString is the fmt rendering Alert.String replaced, kept as the
// reference AppendTo must reproduce byte for byte. %v renders the time
// through sim.Time.String, which FuzzTimeString pins to its own fmt
// reference.
func fmtAlertString(a Alert) string {
	if a.Medium == netif.CAN {
		return fmt.Sprintf("[%v] %s id=%#x: %s", a.At, a.Detector, a.ID, a.Reason)
	}
	return fmt.Sprintf("[%v] %s %s id=%#x: %s", a.At, a.Detector, a.Medium, a.ID, a.Reason)
}

// checkAlertString fails t when String or AppendTo (onto a non-empty
// prefix) disagrees with the fmt reference.
func checkAlertString(t *testing.T, a Alert) {
	t.Helper()
	want := fmtAlertString(a)
	if got := a.String(); got != want {
		t.Fatalf("%#v.String() = %q, want %q", a, got, want)
	}
	if got := string(a.AppendTo([]byte("x="))); got != "x="+want {
		t.Fatalf("%#v.AppendTo(\"x=\") = %q, want %q", a, got, "x="+want)
	}
}

// FuzzAlertString differentially fuzzes the alert renderer against the
// fmt reference. The committed corpus covers every netif.Kind plus one
// out of range, IDs 0 and 0xFFFFFFFF, and times in every unit range.
func FuzzAlertString(f *testing.F) {
	f.Fuzz(func(t *testing.T, at int64, detector string, medium uint8, id uint32, reason string) {
		checkAlertString(t, Alert{At: sim.Time(at), Detector: detector, Medium: netif.Kind(medium), ID: id, Reason: reason})
	})
}

// TestAlertStringMatchesFmt pins the renderer to the fmt reference over
// 2^20 random alerts: every medium and one out of range, uniform IDs,
// log-uniform times of either sign, and the detector names and reasons
// the suites raise.
func TestAlertStringMatchesFmt(t *testing.T) {
	detectors := []string{"", "spec", "frequency", "interval", "fr-slot", "lin-schedule", "eth-addr", "someip"}
	reasons := []string{"", "unknown identifier", "rate high: 9 > 4.0 per window", "100% {odd} %v bytes"}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<20; i++ {
		at := r.Int63n(int64(1) << uint(1+r.Intn(62)))
		if r.Intn(2) == 0 {
			at = -at
		}
		checkAlertString(t, Alert{
			At:       sim.Time(at),
			Detector: detectors[r.Intn(len(detectors))],
			Medium:   netif.Kind(r.Intn(netif.NumKinds + 1)),
			ID:       r.Uint32(),
			Reason:   reasons[r.Intn(len(reasons))],
		})
	}
}
