package sim

import (
	"hash/fnv"
	"math"
)

// Stream is a deterministic pseudo-random stream (splitmix64 core). It is
// intentionally not crypto-grade: it exists so simulations are exactly
// reproducible from a scenario seed. Crypto randomness in the library
// (key generation, nonces) goes through crypto/rand or derived keys, never
// through Stream.
type Stream struct {
	state uint64
	// spare Gaussian value from the Box-Muller pair, if any.
	gauss    float64
	hasGauss bool
}

// NewStream derives an independent stream from (seed, name).
func NewStream(seed uint64, name string) *Stream {
	s := &Stream{}
	s.Reseed(seed, name)
	return s
}

// Reseed re-derives the stream from (seed, name) in place, exactly as
// NewStream would. Subsystems cache *Stream pointers, so pooled resets
// must rewind the existing stream rather than swap in a fresh one.
func (s *Stream) Reseed(seed uint64, name string) {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	s.state = seed ^ h.Sum64()
	s.hasGauss = false
	s.gauss = 0
	// Warm up so that similar seeds diverge immediately.
	s.Uint64()
	s.Uint64()
}

// Uint64 returns the next 64 pseudo-random bits (splitmix64).
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return Mix64(s.state)
}

// Mix64 is the splitmix64 finalizer: a bijection on 64-bit words in
// which every input bit flips each output bit with probability about 1/2.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ChildSeed derives child i's seed from a parent seed: Mix64 of the
// parent advanced i+1 splitmix64 steps. Neighbouring indices get
// decorrelated streams, and the seed depends only on (seed, i), never on
// how many children exist or the order they are created in.
func ChildSeed(seed uint64, i int) uint64 {
	return Mix64(seed + 0x9e3779b97f4a7c15*uint64(i+1))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive bound")
	}
	// Lemire's multiply-shift rejection-free-enough reduction; the bias is
	// below 2^-32 for the bounds used in these models.
	return int((s.Uint64() >> 33) % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (s *Stream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive bound")
	}
	return int64(s.Uint64()>>1) % n
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Norm returns a standard Gaussian variate (Box-Muller).
func (s *Stream) Norm() float64 {
	if s.hasGauss {
		s.hasGauss = false
		return s.gauss
	}
	var u1 float64
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	r := math.Sqrt(-2 * math.Log(u1))
	s.gauss = r * math.Sin(2*math.Pi*u2)
	s.hasGauss = true
	return r * math.Cos(2*math.Pi*u2)
}

// NormSigma returns a Gaussian variate with the given mean and standard
// deviation.
func (s *Stream) NormSigma(mean, sigma float64) float64 {
	return mean + sigma*s.Norm()
}

// Exp returns an exponential variate with the given rate (events per unit).
// It panics if rate <= 0.
func (s *Stream) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("sim: Exp with non-positive rate")
	}
	var u float64
	for u == 0 {
		u = s.Float64()
	}
	return -math.Log(u) / rate
}

// Duration returns a uniform Duration in [lo, hi].
func (s *Stream) Duration(lo, hi Duration) Duration {
	if hi <= lo {
		return lo
	}
	return lo + Duration(s.Int63n(int64(hi-lo)+1))
}

// Jitter returns d scaled by a uniform factor in [1-frac, 1+frac].
func (s *Stream) Jitter(d Duration, frac float64) Duration {
	f := 1 + frac*(2*s.Float64()-1)
	return Duration(float64(d) * f)
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Bytes fills b with pseudo-random bytes.
func (s *Stream) Bytes(b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := s.Uint64()
		for j := 0; j < 8 && i+j < len(b); j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
}

// Pick returns a uniformly chosen index weighted by w. The weights must be
// non-negative and not all zero; otherwise Pick panics.
func (s *Stream) Pick(w []float64) int {
	total := 0.0
	for _, x := range w {
		if x < 0 {
			panic("sim: negative weight")
		}
		total += x
	}
	if total == 0 {
		panic("sim: all weights zero")
	}
	r := s.Float64() * total
	for i, x := range w {
		r -= x
		if r < 0 {
			return i
		}
	}
	return len(w) - 1
}
