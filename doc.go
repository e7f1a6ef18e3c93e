// Package autosec is a reproduction, as a working Go library, of the
// automotive security architecture surveyed in "INVITED: Extensibility in
// Automotive Security: Current Practice and Challenges" (Ray, Chen,
// Bhadra, Al Faruque — DAC 2017).
//
// The implementation lives under internal/: simulated in-vehicle networks
// (CAN/LIN/FlexRay/automotive Ethernet), the SHE secure-hardware model,
// an IEEE 1609.2-style V2X stack, the central security gateway, intrusion
// detection, Uptane-style OTA, side-channel attacks, keyless entry, and
// the 4+1-layer extensible architecture that composes them
// (internal/core). The per-claim experiment harness is in
// internal/experiments; bench_test.go in this directory regenerates every
// experiment table, and cmd/benchreport prints them all. internal/runner
// replicates any experiment suite across seeds on a parallel worker pool
// and merges the per-seed tables into mean ± 95% CI aggregates
// (cmd/benchreport -seeds N -par N), deterministically at any
// parallelism.
package autosec
