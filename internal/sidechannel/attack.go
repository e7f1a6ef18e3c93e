package sidechannel

import (
	"math"
)

// This file implements the attacks: first-order CPA (Pearson
// correlation against the Hamming-weight hypothesis), and second-order
// CPA (centered-product combination of the mask and masked-output
// points) for masked devices.

// pearson computes the correlation coefficient between x and y.
func pearson(x, y []float64) float64 {
	n := float64(len(x))
	if n == 0 {
		return 0
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// CPAByte runs first-order CPA on one key byte: for every guess it
// correlates the HW(sbox(pt^guess)) hypothesis with the byte's leakage
// point and returns the best guess with its absolute correlation.
func CPAByte(ts *TraceSet, pos int) (guess byte, corr float64) {
	ppb := ts.PointsPerByte()
	point := pos * ppb
	if ts.Masked {
		point = pos*ppb + 1 // the masked-output point
	}
	leak := make([]float64, len(ts.Traces))
	for i, tr := range ts.Traces {
		leak[i] = tr[point]
	}
	hyp := make([]float64, len(ts.Traces))
	best := -1.0
	for g := 0; g < 256; g++ {
		for i, pt := range ts.Plaintexts {
			hyp[i] = float64(HW(sbox[pt[pos]^byte(g)]))
		}
		c := math.Abs(pearson(hyp, leak))
		if c > best {
			best = c
			guess = byte(g)
		}
	}
	return guess, best
}

// CPA recovers the full 16-byte key with first-order CPA.
func CPA(ts *TraceSet) [16]byte {
	var key [16]byte
	for i := 0; i < 16; i++ {
		key[i], _ = CPAByte(ts, i)
	}
	return key
}

// SecondOrderCPAByte attacks a masked trace set by combining each byte's
// mask point and masked-output point with the centered product and
// correlating against the HW hypothesis. This is the textbook
// second-order attack that first-order masking does not stop.
func SecondOrderCPAByte(ts *TraceSet, pos int) (guess byte, corr float64) {
	if !ts.Masked {
		return CPAByte(ts, pos)
	}
	p0, p1 := pos*2, pos*2+1
	n := len(ts.Traces)
	// Center each point.
	var m0, m1 float64
	for _, tr := range ts.Traces {
		m0 += tr[p0]
		m1 += tr[p1]
	}
	m0 /= float64(n)
	m1 /= float64(n)
	comb := make([]float64, n)
	for i, tr := range ts.Traces {
		comb[i] = (tr[p0] - m0) * (tr[p1] - m1)
	}
	hyp := make([]float64, n)
	best := -1.0
	for g := 0; g < 256; g++ {
		for i, pt := range ts.Plaintexts {
			hyp[i] = float64(HW(sbox[pt[pos]^byte(g)]))
		}
		c := math.Abs(pearson(hyp, comb))
		if c > best {
			best = c
			guess = byte(g)
		}
	}
	return guess, best
}

// SecondOrderCPA recovers the full key from a masked trace set.
func SecondOrderCPA(ts *TraceSet) [16]byte {
	var key [16]byte
	for i := 0; i < 16; i++ {
		key[i], _ = SecondOrderCPAByte(ts, i)
	}
	return key
}

// SuccessRate reports the fraction of recovered key bytes that match.
func SuccessRate(got, want [16]byte) float64 {
	hits := 0
	for i := range got {
		if got[i] == want[i] {
			hits++
		}
	}
	return float64(hits) / 16
}

// TracesToRecover runs attack at increasing trace counts (doubling from
// start) until the full key is recovered or limit is exceeded; it returns
// the first successful count, or 0 if the limit was hit. It is the E2
// "traces needed" metric.
func TracesToRecover(key [16]byte, cfg Config, attack func(*TraceSet) [16]byte, start, limit int, acquire func(n int) *TraceSet) int {
	for n := start; n <= limit; n *= 2 {
		ts := acquire(n)
		if SuccessRate(attack(ts), key) == 1 {
			return n
		}
	}
	return 0
}
