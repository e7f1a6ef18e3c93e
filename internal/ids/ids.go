// Package ids implements in-vehicle network intrusion detection — the
// compensating control the paper's Secure Networks layer relies on for
// IVN protocols that "lack security mechanisms". Four detector families
// cover the classic CAN attack classes:
//
//   - Frequency: windowed per-ID rate bounds (floods, message suspension)
//   - Interval: per-frame inter-arrival checks (injection between
//     legitimate periodic frames)
//   - Entropy: payload byte-entropy drift (fuzzing)
//   - Specification: ID whitelist, DLC and signal-range rules (malformed
//     and out-of-protocol traffic)
//
// Detectors are trained on clean traffic and then observe a live stream;
// they are installable and replaceable at runtime through the policy
// layer, which is the extensibility story of experiment E11/E12.
//
// Detectors consume the netif transport fabric, not any one medium:
// traffic is keyed by (medium, identifier), so the same statistical
// models watch CAN IDs, LIN frames, FlexRay slots and Ethernet
// EtherTypes. On CAN-only traffic the keys order and compare exactly as
// the historical per-can.ID state did.
package ids

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"autosec/internal/netif"
	"autosec/internal/sim"
)

// Alert is one detector finding.
type Alert struct {
	At       sim.Time
	Detector string
	Medium   netif.Kind
	ID       uint32
	Reason   string
}

func (a Alert) String() string { return string(a.AppendTo(nil)) }

// AppendTo appends String's rendering of a to dst:
// "[<at>] <detector> <medium> id=0x<hex id>: <reason>", where CAN alerts
// omit the medium (the historical CAN rendering, byte-for-byte).
func (a Alert) AppendTo(dst []byte) []byte {
	dst = append(dst, '[')
	dst = a.At.AppendTo(dst)
	dst = append(dst, "] "...)
	dst = append(dst, a.Detector...)
	if a.Medium != netif.CAN {
		dst = append(dst, ' ')
		dst = append(dst, a.Medium.String()...)
	}
	dst = append(dst, " id=0x"...)
	dst = strconv.AppendUint(dst, uint64(a.ID), 16)
	dst = append(dst, ": "...)
	return append(dst, a.Reason...)
}

// alertFor builds an alert for a traffic key.
func alertFor(at sim.Time, detector string, k netif.Key, reason string) Alert {
	return Alert{At: at, Detector: detector, Medium: k.Kind(), ID: k.ID(), Reason: reason}
}

// Detector is a streaming intrusion detector. Train consumes clean
// reference traffic. Observe consumes one live record, appends any alerts
// it raises to dst and returns the extended slice (the strconv.Append*
// idiom), so an engine collects every detector's alerts into one buffer
// it owns. Reset returns the detector to its untrained constructor state
// in place: maps are cleared rather than replaced and tunables go back to
// their constructor values, so a pooled engine reuses the storage.
//
// A record passed to Observe is valid only for the duration of the call:
// an engine's taps feed the medium's frame view, whose payload the medium
// reuses once the callback returns. A detector that keeps payload bytes
// copies them.
type Detector interface {
	Name() string
	Train(trace *netif.Trace)
	Observe(dst []Alert, rec netif.Record) []Alert
	Reset()
}

// FrequencyDetector learns each identifier's frame rate over fixed
// windows and alerts when a live window's count leaves the learned band.
type FrequencyDetector struct {
	// Window is the counting window (default 100ms).
	Window sim.Duration
	// Slack widens the learned [min,max] count band multiplicatively.
	Slack float64

	bounds map[netif.Key][2]float64 // learned min/max per window
	// boundKeys holds the learned keys sorted ascending: the window-close
	// sweep walks this slice, not the map, so alert order is deterministic
	// (and, on CAN traffic, identical to ascending-ID order).
	boundKeys  []netif.Key
	winStart   sim.Time
	counts     map[netif.Key]int
	suppressed map[netif.Key]bool
}

// NewFrequencyDetector creates a detector with a 100ms window and 50%
// slack.
func NewFrequencyDetector() *FrequencyDetector {
	d := &FrequencyDetector{}
	d.Reset()
	return d
}

// Reset implements Detector.
func (d *FrequencyDetector) Reset() {
	d.Window, d.Slack = 100*sim.Millisecond, 0.5
	clear(d.bounds)
	d.boundKeys = d.boundKeys[:0]
	d.winStart = 0
	clear(d.counts)
	clear(d.suppressed)
}

// Name implements Detector.
func (d *FrequencyDetector) Name() string { return "frequency" }

// Train implements Detector.
func (d *FrequencyDetector) Train(trace *netif.Trace) {
	d.bounds = make(map[netif.Key][2]float64)
	if trace.Len() == 0 {
		return
	}
	// Min/max scan rather than first/last: training traces assembled from
	// several sources are not necessarily time-sorted.
	start, end := trace.Records[0].At, trace.Records[0].At
	for _, r := range trace.Records {
		if r.At < start {
			start = r.At
		}
		if r.At > end {
			end = r.At
		}
	}
	nWin := int((end-start)/d.Window) + 1
	perWin := make(map[netif.Key][]int)
	for _, k := range trace.Keys() {
		perWin[k] = make([]int, nWin)
	}
	for i := range trace.Records {
		r := &trace.Records[i]
		w := int((r.At - start) / d.Window)
		perWin[r.Frame.Key()][w]++
	}
	for k, wins := range perWin {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, c := range wins {
			fc := float64(c)
			if fc < lo {
				lo = fc
			}
			if fc > hi {
				hi = fc
			}
		}
		// The ±1 absolute margin absorbs window-boundary drift: a message
		// whose period equals the window lands 0 or 2 times in a window
		// depending on phase, without that being an anomaly.
		d.bounds[k] = [2]float64{lo*(1-d.Slack) - 1, hi*(1+d.Slack) + 1}
	}
	d.boundKeys = d.boundKeys[:0]
	for k := range d.bounds {
		d.boundKeys = append(d.boundKeys, k)
	}
	sort.Slice(d.boundKeys, func(i, j int) bool { return d.boundKeys[i] < d.boundKeys[j] })
	d.counts = make(map[netif.Key]int)
	d.suppressed = make(map[netif.Key]bool)
}

// Observe implements Detector.
func (d *FrequencyDetector) Observe(dst []Alert, rec netif.Record) []Alert {
	if d.counts == nil {
		d.counts = make(map[netif.Key]int)
		d.suppressed = make(map[netif.Key]bool)
	}
	if rec.At-d.winStart >= d.Window {
		// Close the window: check all learned keys, including silent ones
		// (suspension attack shows as counts below the learned minimum).
		for _, k := range d.boundKeys {
			b := d.bounds[k]
			c := float64(d.counts[k])
			switch {
			case c > b[1]:
				dst = append(dst, alertFor(rec.At, d.Name(), k,
					fmt.Sprintf("rate high: %d > %.1f per window", int(c), b[1])))
			case c < b[0] && !d.suppressed[k]:
				// Alert once per suppression episode to bound alert volume.
				d.suppressed[k] = true
				dst = append(dst, alertFor(rec.At, d.Name(), k,
					fmt.Sprintf("rate low: %d < %.1f per window", int(c), b[0])))
			default:
				d.suppressed[k] = false
			}
		}
		// Clear in place rather than reallocating: the observe hot path
		// must stay allocation-free at steady state.
		clear(d.counts)
		d.winStart = rec.At
	}
	d.counts[rec.Frame.Key()]++
	return dst
}

// IntervalDetector learns each periodic identifier's minimum inter-arrival
// time and alerts on frames arriving much earlier than the learned period
// — the signature of injected frames racing the legitimate sender.
type IntervalDetector struct {
	// MinFraction of the learned period below which a frame is anomalous.
	MinFraction float64

	period map[netif.Key]sim.Duration
	// lastAt holds the last-seen time of modelled keys only, so traffic
	// the model does not know cannot grow it.
	lastAt map[netif.Key]sim.Time
}

// NewIntervalDetector creates a detector alerting below half the learned
// period.
func NewIntervalDetector() *IntervalDetector {
	d := &IntervalDetector{}
	d.Reset()
	return d
}

// Reset implements Detector.
func (d *IntervalDetector) Reset() {
	d.MinFraction = 0.5
	clear(d.period)
	clear(d.lastAt)
}

// Name implements Detector.
func (d *IntervalDetector) Name() string { return "interval" }

// Train implements Detector.
func (d *IntervalDetector) Train(trace *netif.Trace) {
	d.period = make(map[netif.Key]sim.Duration)
	d.lastAt = make(map[netif.Key]sim.Time)
	// One pass over the trace buckets each key's inter-arrival times, in
	// the order Trace.Intervals would list them.
	type series struct {
		last sim.Time
		ivs  sim.Summary
	}
	byKey := make(map[netif.Key]*series)
	for i := range trace.Records {
		r := &trace.Records[i]
		k := r.Frame.Key()
		s := byKey[k]
		if s == nil {
			byKey[k] = &series{last: r.At}
			continue
		}
		s.ivs.Observe(float64(r.At - s.last))
		s.last = r.At
	}
	for k, s := range byKey {
		if s.ivs.N() < 3 {
			continue // aperiodic or too rare to model
		}
		// Use the median as the period estimate.
		d.period[k] = sim.Duration(s.ivs.Quantile(0.5))
	}
}

// Observe implements Detector.
func (d *IntervalDetector) Observe(dst []Alert, rec netif.Record) []Alert {
	k := rec.Frame.Key()
	p, modelled := d.period[k]
	if !modelled {
		return dst
	}
	last, seen := d.lastAt[k]
	d.lastAt[k] = rec.At
	if !seen {
		return dst
	}
	iv := rec.At - last
	if float64(iv) < d.MinFraction*float64(p) {
		dst = append(dst, alertFor(rec.At, d.Name(), k,
			fmt.Sprintf("interval %v < %.0f%% of period %v", iv, d.MinFraction*100, p)))
	}
	return dst
}

// EntropyDetector tracks per-ID payload byte entropy over sliding batches
// and alerts when a batch's entropy departs the trained band. Fuzzing
// (random payloads) drives entropy up; stuck/replayed payloads drive it
// to zero.
type EntropyDetector struct {
	// BatchSize is the number of frames per entropy estimate.
	BatchSize int
	// Tolerance is the allowed absolute deviation in bits.
	Tolerance float64

	trained map[netif.Key]float64
	buf     map[netif.Key]*entropyBatch
}

// NewEntropyDetector creates a detector with batch 32, tolerance 1.2 bits.
func NewEntropyDetector() *EntropyDetector {
	d := &EntropyDetector{}
	d.Reset()
	return d
}

// Reset implements Detector. Each key's batch storage stays for reuse,
// emptied: an empty batch and an absent one observe alike.
func (d *EntropyDetector) Reset() {
	d.BatchSize, d.Tolerance = 32, 1.2
	clear(d.trained)
	for _, b := range d.buf {
		b.empty()
	}
}

// Name implements Detector.
func (d *EntropyDetector) Name() string { return "entropy" }

// byteEntropy is the byte-level Shannon entropy of data.
func byteEntropy(data []byte) float64 {
	if len(data) == 0 {
		return 0
	}
	var hist [256]int
	for _, b := range data {
		hist[b]++
	}
	h := 0.0
	for _, c := range hist {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(len(data))
		h -= p * math.Log2(p)
	}
	return h
}

// entropyBatch is one key's batch in progress: the payload bytes of its
// frames so far, copied into storage the batch owns and reuses, so a
// caller may recycle a payload as soon as add returns.
type entropyBatch struct {
	data   []byte
	frames int
}

// add copies p into the batch. When that fills the batch to size frames
// it returns the batch's entropy, full set, and empties the batch for
// the next one.
func (b *entropyBatch) add(p []byte, size int) (h float64, full bool) {
	b.data = append(b.data, p...)
	b.frames++
	if b.frames < size {
		return 0, false
	}
	h = byteEntropy(b.data)
	b.empty()
	return h, true
}

func (b *entropyBatch) empty() { b.data, b.frames = b.data[:0], 0 }

// Train implements Detector. It trains on the same statistic Observe
// computes: the mean entropy of each key's BatchSize-frame batches, in
// trace order. Whole-trace entropy would run higher than any batch
// (counters sweep more of their range over a long trace) and make every
// clean batch look anomalous. Keys with fewer than BatchSize frames are
// not modelled.
func (d *EntropyDetector) Train(trace *netif.Trace) {
	d.trained = make(map[netif.Key]float64)
	d.buf = make(map[netif.Key]*entropyBatch)
	type keyMean struct {
		batch entropyBatch
		sum   float64
		n     int
	}
	byKey := make(map[netif.Key]*keyMean)
	for i := range trace.Records {
		r := &trace.Records[i]
		k := r.Frame.Key()
		m := byKey[k]
		if m == nil {
			m = &keyMean{}
			byKey[k] = m
		}
		if h, full := m.batch.add(r.Frame.Payload, d.BatchSize); full {
			m.sum += h
			m.n++
		}
	}
	for k, m := range byKey {
		if m.n > 0 {
			d.trained[k] = m.sum / float64(m.n)
		}
	}
}

// Observe implements Detector. It is the only detector that keeps payload
// bytes: it copies them into its batches, so the record's payload may be
// a medium's reused view.
func (d *EntropyDetector) Observe(dst []Alert, rec netif.Record) []Alert {
	k := rec.Frame.Key()
	ref, modelled := d.trained[k]
	if !modelled {
		return dst
	}
	b := d.buf[k]
	if b == nil {
		b = &entropyBatch{}
		d.buf[k] = b
	}
	if h, full := b.add(rec.Frame.Payload, d.BatchSize); full && math.Abs(h-ref) > d.Tolerance {
		dst = append(dst, alertFor(rec.At, d.Name(), k,
			fmt.Sprintf("entropy %.2f vs trained %.2f bits", h, ref)))
	}
	return dst
}

// SignalRange constrains one payload byte of an identifier.
type SignalRange struct {
	Byte   int
	Lo, Hi byte
}

// SpecDetector enforces an explicit communication-matrix specification:
// known identifiers, expected DLC, and per-byte signal ranges. Unlike the
// statistical detectors it needs no training and has (by construction)
// no false positives on conforming traffic.
type SpecDetector struct {
	// DLC maps each permitted traffic key to its expected payload length
	// (-1: any). Keys are built with netif.MakeKey.
	DLC map[netif.Key]int
	// Ranges lists signal constraints per key.
	Ranges map[netif.Key][]SignalRange
	// AlertUnknownID controls whether unlisted identifiers alert.
	AlertUnknownID bool
}

// NewSpecDetector creates an empty specification.
func NewSpecDetector() *SpecDetector {
	d := &SpecDetector{DLC: make(map[netif.Key]int), Ranges: make(map[netif.Key][]SignalRange)}
	d.Reset()
	return d
}

// Reset implements Detector: the specification empties, so the detector
// relearns it from the next Train.
func (d *SpecDetector) Reset() {
	clear(d.DLC)
	clear(d.Ranges)
	d.AlertUnknownID = true
}

// Name implements Detector.
func (d *SpecDetector) Name() string { return "spec" }

// Train implements Detector. SpecDetector derives the ID whitelist and
// DLCs from clean traffic when they were not configured explicitly.
func (d *SpecDetector) Train(trace *netif.Trace) {
	if len(d.DLC) > 0 {
		return // explicitly configured: training is a no-op
	}
	for i := range trace.Records {
		r := &trace.Records[i]
		k := r.Frame.Key()
		if cur, ok := d.DLC[k]; !ok {
			d.DLC[k] = len(r.Frame.Payload)
		} else if cur != len(r.Frame.Payload) {
			d.DLC[k] = -1
		}
	}
}

// Observe implements Detector.
func (d *SpecDetector) Observe(dst []Alert, rec netif.Record) []Alert {
	k := rec.Frame.Key()
	want, known := d.DLC[k]
	if !known {
		if d.AlertUnknownID {
			dst = append(dst, alertFor(rec.At, d.Name(), k, "unknown identifier"))
		}
		return dst
	}
	if want >= 0 && len(rec.Frame.Payload) != want {
		return append(dst, alertFor(rec.At, d.Name(), k,
			fmt.Sprintf("DLC %d, expected %d", len(rec.Frame.Payload), want)))
	}
	for _, sr := range d.Ranges[k] {
		if sr.Byte >= len(rec.Frame.Payload) {
			continue
		}
		v := rec.Frame.Payload[sr.Byte]
		if v < sr.Lo || v > sr.Hi {
			return append(dst, alertFor(rec.At, d.Name(), k,
				fmt.Sprintf("byte %d value %#x outside [%#x,%#x]", sr.Byte, v, sr.Lo, sr.Hi)))
		}
	}
	return dst
}
