package sidechannel

import (
	"math"
	"testing"

	"autosec/internal/she"
	"autosec/internal/sim"
)

var testKey = [16]byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}

func TestHW(t *testing.T) {
	cases := map[byte]int{0x00: 0, 0xFF: 8, 0x0F: 4, 0x80: 1}
	for b, want := range cases {
		if got := HW(b); got != want {
			t.Errorf("HW(%#x)=%d, want %d", b, got, want)
		}
	}
}

func TestSBoxSpotValues(t *testing.T) {
	// FIPS-197 known values.
	if sbox[0x00] != 0x63 || sbox[0x53] != 0xed || sbox[0xff] != 0x16 {
		t.Fatal("S-box table corrupt")
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if c := pearson(x, x); math.Abs(c-1) > 1e-12 {
		t.Fatalf("self correlation %v", c)
	}
	y := []float64{4, 3, 2, 1}
	if c := pearson(x, y); math.Abs(c+1) > 1e-12 {
		t.Fatalf("anti correlation %v", c)
	}
	if c := pearson(x, []float64{5, 5, 5, 5}); c != 0 {
		t.Fatalf("constant correlation %v", c)
	}
	if c := pearson(nil, nil); c != 0 {
		t.Fatalf("empty correlation %v", c)
	}
}

func TestCPARecoversKeyLowNoise(t *testing.T) {
	rng := sim.NewStream(1, "cpa")
	ts := Acquire(testKey, 300, Config{NoiseSigma: 0.5}, rng)
	got := CPA(ts)
	if got != testKey {
		t.Fatalf("CPA recovered %x, want %x (rate %.2f)", got, testKey, SuccessRate(got, testKey))
	}
}

func TestCPARecoversKeyModerateNoise(t *testing.T) {
	rng := sim.NewStream(2, "cpa2")
	ts := Acquire(testKey, 3000, Config{NoiseSigma: 2}, rng)
	got := CPA(ts)
	if SuccessRate(got, testKey) < 1 {
		t.Fatalf("CPA at sigma=2 with 3000 traces: rate %.2f", SuccessRate(got, testKey))
	}
}

func TestCPAFailsWithTooFewTraces(t *testing.T) {
	rng := sim.NewStream(3, "cpa3")
	ts := Acquire(testKey, 10, Config{NoiseSigma: 3}, rng)
	got := CPA(ts)
	if SuccessRate(got, testKey) > 0.5 {
		t.Fatalf("CPA with 10 noisy traces should not succeed: rate %.2f", SuccessRate(got, testKey))
	}
}

func TestMaskingDefeatsFirstOrderCPA(t *testing.T) {
	rng := sim.NewStream(5, "mask")
	ts := Acquire(testKey, 3000, Config{NoiseSigma: 0.5, Masked: true}, rng)
	got := CPA(ts)
	rate := SuccessRate(got, testKey)
	// First-order CPA against a masked implementation should do no better
	// than chance (1/256 per byte ≈ 0).
	if rate > 0.2 {
		t.Fatalf("first-order CPA beat masking: rate %.2f", rate)
	}
}

func TestSecondOrderCPABeatsMasking(t *testing.T) {
	rng := sim.NewStream(6, "so")
	ts := Acquire(testKey, 20000, Config{NoiseSigma: 0.3, Masked: true}, rng)
	got := SecondOrderCPA(ts)
	rate := SuccessRate(got, testKey)
	if rate < 0.9 {
		t.Fatalf("second-order CPA rate %.2f, want ≥0.9", rate)
	}
}

func TestSecondOrderFallsBackUnmasked(t *testing.T) {
	rng := sim.NewStream(7, "sofb")
	ts := Acquire(testKey, 300, Config{NoiseSigma: 0.5}, rng)
	g, _ := SecondOrderCPAByte(ts, 0)
	if g != testKey[0] {
		t.Fatalf("fallback guess %#x", g)
	}
}

func TestMaskingCostsTraces(t *testing.T) {
	// The countermeasure's value in one number: at the same noise, the
	// masked device needs strictly more traces (second-order) than the
	// unmasked one (first-order).
	rngU := sim.NewStream(8, "cost-u")
	unmaskedNeeds := TracesToRecover(testKey, Config{NoiseSigma: 0.5}, CPA, 50, 100000, func(n int) *TraceSet {
		return Acquire(testKey, n, Config{NoiseSigma: 0.5}, rngU)
	})
	rngM := sim.NewStream(9, "cost-m")
	maskedNeeds := TracesToRecover(testKey, Config{NoiseSigma: 0.5, Masked: true}, SecondOrderCPA, 50, 100000, func(n int) *TraceSet {
		return Acquire(testKey, n, Config{NoiseSigma: 0.5, Masked: true}, rngM)
	})
	if unmaskedNeeds == 0 {
		t.Fatal("first-order attack never succeeded")
	}
	if maskedNeeds == 0 {
		t.Skip("second-order attack did not converge within limit (acceptable at this noise)")
	}
	if maskedNeeds <= unmaskedNeeds {
		t.Fatalf("masking did not raise trace cost: %d vs %d", maskedNeeds, unmaskedNeeds)
	}
	t.Logf("traces to recover: unmasked=%d masked=%d (%.0fx)", unmaskedNeeds, maskedNeeds, float64(maskedNeeds)/float64(unmaskedNeeds))
}

func TestAcquireFromEngine(t *testing.T) {
	var uid she.UID
	e := she.NewEngine(uid)
	var key [16]byte
	copy(key[:], testKey[:])
	if err := e.ProvisionKey(she.Key2, key, she.Flags{}); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewStream(10, "engine")
	ts, err := AcquireFromEngine(e, she.Key2, 300, Config{NoiseSigma: 0.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	got := CPA(ts)
	if got != key {
		t.Fatalf("engine CPA recovered %x (rate %.2f)", got, SuccessRate(got, key))
	}
	// The Leak tap was restored.
	if e.Leak != nil {
		t.Fatal("Leak tap left installed")
	}
}

func TestAcquireFromEngineErrors(t *testing.T) {
	var uid she.UID
	e := she.NewEngine(uid)
	rng := sim.NewStream(11, "engine-err")
	if _, err := AcquireFromEngine(e, she.Key5, 10, Config{}, rng); err == nil {
		t.Fatal("empty slot acquisition succeeded")
	}
}

func TestSuccessRate(t *testing.T) {
	a := testKey
	if SuccessRate(a, a) != 1 {
		t.Fatal("self rate != 1")
	}
	b := a
	b[0] ^= 1
	if r := SuccessRate(b, a); r != 15.0/16 {
		t.Fatalf("rate=%v", r)
	}
}
