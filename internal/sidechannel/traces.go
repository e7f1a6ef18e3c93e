// Package sidechannel models the paper's side-channel attack mode: an
// adversary with physical access to an ECU measures its power consumption
// while the SHE engine encrypts, and recovers the AES key with
// correlation power analysis. The leakage model is the
// standard academic one (Kocher et al. [12 in the paper]): each first-round
// S-box output leaks its Hamming weight plus Gaussian noise.
//
// A first-order Boolean masking countermeasure is included; it defeats
// first-order CPA and forces the attacker to a second-order attack
// with a substantially higher trace requirement — the quantitative content
// of experiment E2, and the enabler of the paper's "extract one key, own
// the fleet" chain (E3).
package sidechannel

import (
	"math/bits"

	"autosec/internal/she"
	"autosec/internal/sim"
)

// sbox is the AES forward S-box.
var sbox = [256]byte{
	0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
	0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
	0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
	0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
	0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
	0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
	0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
	0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
	0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
	0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
	0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
	0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
	0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
	0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
	0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
	0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
}

// HW is the Hamming weight of a byte.
func HW(b byte) int { return bits.OnesCount8(b) }

// Config parameterizes trace acquisition.
type Config struct {
	// NoiseSigma is the Gaussian noise standard deviation added to each
	// leakage point (Hamming weights span 0..8, so sigma 1-4 covers the
	// realistic SNR range).
	NoiseSigma float64
	// Masked enables the first-order Boolean masking countermeasure: the
	// device computes on sbox(x)^m and leaks the mask at a separate point.
	Masked bool
}

// TraceSet is an acquisition campaign: per-trace plaintexts and the
// measured leakage points. Unmasked traces have 16 points (one per state
// byte); masked traces have 32 (mask HW then masked-output HW per byte).
type TraceSet struct {
	Plaintexts [][16]byte
	Traces     [][]float64
	Masked     bool
}

// PointsPerByte reports the number of leakage points per state byte.
func (ts *TraceSet) PointsPerByte() int {
	if ts.Masked {
		return 2
	}
	return 1
}

// Acquire simulates n encryption measurements against the device key.
// The attacker keeps the plaintexts and traces; the key is used only to
// synthesize physics.
func Acquire(key [16]byte, n int, cfg Config, rng *sim.Stream) *TraceSet {
	ts := &TraceSet{Masked: cfg.Masked}
	for t := 0; t < n; t++ {
		var pt [16]byte
		rng.Bytes(pt[:])
		ts.Plaintexts = append(ts.Plaintexts, pt)
		var trace []float64
		for i := 0; i < 16; i++ {
			out := sbox[pt[i]^key[i]]
			if cfg.Masked {
				mask := byte(rng.Uint64())
				trace = append(trace,
					float64(HW(mask))+rng.NormSigma(0, cfg.NoiseSigma),
					float64(HW(out^mask))+rng.NormSigma(0, cfg.NoiseSigma))
			} else {
				trace = append(trace, float64(HW(out))+rng.NormSigma(0, cfg.NoiseSigma))
			}
		}
		ts.Traces = append(ts.Traces, trace)
	}
	return ts
}

// AcquireFromEngine captures traces from a live SHE engine through its
// Leak tap: the engine encrypts attacker-chosen plaintexts and the tap
// synthesizes the power measurement from the key material it can "see"
// flowing through the (simulated) silicon. The attacker-facing output is
// only (plaintext, trace).
func AcquireFromEngine(e *she.Engine, slot she.KeyID, n int, cfg Config, rng *sim.Stream) (*TraceSet, error) {
	ts := &TraceSet{Masked: cfg.Masked}
	var current []float64
	prevLeak := e.Leak
	defer func() { e.Leak = prevLeak }()
	e.Leak = func(op string, key, block []byte) {
		current = nil
		for i := 0; i < 16; i++ {
			out := sbox[block[i]^key[i]]
			if cfg.Masked {
				mask := byte(rng.Uint64())
				current = append(current,
					float64(HW(mask))+rng.NormSigma(0, cfg.NoiseSigma),
					float64(HW(out^mask))+rng.NormSigma(0, cfg.NoiseSigma))
			} else {
				current = append(current, float64(HW(out))+rng.NormSigma(0, cfg.NoiseSigma))
			}
		}
	}
	for t := 0; t < n; t++ {
		var pt [16]byte
		rng.Bytes(pt[:])
		if _, err := e.EncryptECB(slot, pt[:]); err != nil {
			return nil, err
		}
		ts.Plaintexts = append(ts.Plaintexts, pt)
		ts.Traces = append(ts.Traces, current)
	}
	return ts, nil
}
