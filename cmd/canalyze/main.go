// Command canalyze replays a CAN trace through the intrusion-detection
// engine and reports alerts. It can also synthesize traces (clean or with
// an injected attack) in the same text format, so a full train/analyze
// loop works without any other tooling:
//
//	canalyze gen -dur 20 > clean.trace
//	canalyze gen -dur 30 -attack flood > live.trace
//	canalyze detect -train clean.trace live.trace
//	canalyze export -format chrome live.trace > live.json
//
// Trace format: one frame per line, "<seconds> <sender> <hex-id>
// <hex-payload|-> [flags]"; '#' starts a comment. export converts a
// trace into the observability layer's Chrome trace_event JSON (open in
// chrome://tracing / Perfetto) or plain-text timeline.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"autosec/internal/can"
	"autosec/internal/ids"
	"autosec/internal/netif"
	"autosec/internal/obs"
	"autosec/internal/sim"
	"autosec/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		cmdGen(os.Args[2:])
	case "detect":
		cmdDetect(os.Args[2:])
	case "export":
		cmdExport(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  canalyze gen [-dur SECONDS] [-seed N] [-attack none|flood|fuzz|suspend|unknown]   write a trace to stdout
  canalyze detect -train FILE [-detectors all|frequency,spec,...] FILE              replay FILE through the IDS
  canalyze export [-format chrome|timeline] FILE                                    convert a trace for viewers
`)
	os.Exit(2)
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	dur := fs.Float64("dur", 20, "trace duration in seconds")
	seed := fs.Uint64("seed", 1, "generator seed")
	attack := fs.String("attack", "none", "attack to inject over the middle third: none|flood|fuzz|suspend|unknown")
	_ = fs.Parse(args)

	d := sim.Duration(*dur * float64(sim.Second))
	tr := workload.SyntheticTrace(workload.PowertrainMatrix(), d, *seed, 0.01)
	lo, hi := d/3, 2*d/3
	rnd := sim.NewStream(*seed, "canalyze.attack")
	switch *attack {
	case "none":
	case "flood":
		for at := lo; at < hi; at += sim.Millisecond {
			tr.Records = append(tr.Records, can.NetifRecord(at, can.Frame{ID: 0x0C0, Data: make([]byte, 8)}, "attacker"))
		}
	case "fuzz":
		for i, r := range tr.Records {
			if r.Frame.ID == 0x1A0 && r.At >= lo && r.At < hi {
				b := make([]byte, len(r.Frame.Payload))
				rnd.Bytes(b)
				tr.Records[i].Frame.Payload = b
				tr.Records[i].Frame.Sender = "attacker"
			}
		}
	case "suspend":
		kept := tr.Records[:0]
		for _, r := range tr.Records {
			if r.Frame.ID == 0x120 && r.At >= lo && r.At < hi {
				continue
			}
			kept = append(kept, r)
		}
		tr.Records = kept
	case "unknown":
		for at := lo; at < hi; at += 50 * sim.Millisecond {
			tr.Records = append(tr.Records, can.NetifRecord(at, can.Frame{ID: 0x7DF, Data: []byte{0x02, 0x10, 0x01}}, "attacker"))
		}
	default:
		fmt.Fprintf(os.Stderr, "canalyze: unknown attack %q\n", *attack)
		os.Exit(2)
	}
	sort.SliceStable(tr.Records, func(i, j int) bool { return tr.Records[i].At < tr.Records[j].At })
	if err := can.WriteTrace(os.Stdout, tr); err != nil {
		fatal(err)
	}
}

func cmdDetect(args []string) {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	trainPath := fs.String("train", "", "clean training trace (required)")
	dets := fs.String("detectors", "all", "comma list: frequency,interval,entropy,spec or 'all'")
	_ = fs.Parse(args)
	if *trainPath == "" || fs.NArg() != 1 {
		usage()
	}

	train := loadTrace(*trainPath)
	live := loadTrace(fs.Arg(0))

	var detectors []ids.Detector
	switch *dets {
	case "all":
		detectors = []ids.Detector{
			ids.NewFrequencyDetector(), ids.NewIntervalDetector(),
			ids.NewEntropyDetector(), ids.NewSpecDetector(),
		}
	default:
		for _, name := range splitComma(*dets) {
			switch name {
			case "frequency":
				detectors = append(detectors, ids.NewFrequencyDetector())
			case "interval":
				detectors = append(detectors, ids.NewIntervalDetector())
			case "entropy":
				detectors = append(detectors, ids.NewEntropyDetector())
			case "spec":
				detectors = append(detectors, ids.NewSpecDetector())
			default:
				fmt.Fprintf(os.Stderr, "canalyze: unknown detector %q\n", name)
				os.Exit(2)
			}
		}
	}

	eng := ids.NewEngine(detectors...)
	eng.Train(train)
	for _, r := range live.Records {
		for _, a := range eng.Observe(r) {
			fmt.Println(a.String())
		}
	}
	fmt.Printf("-- %s over %d frames (%v of traffic)\n",
		eng.Summary(), live.Len(), lastTime(live))
}

// cmdExport replays a candump-style trace into the observability tracer
// and re-exports it for trace viewers — the same event pipeline the live
// simulator uses, so offline captures and simulated runs render
// identically.
func cmdExport(args []string) {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	format := fs.String("format", "chrome", "output format: chrome (trace_event JSON) or timeline (plain text)")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	tr := loadTrace(fs.Arg(0))
	sink := obs.NewTracer(nextPow2(tr.Len()))
	emitObs(tr, sink)
	if dropped := sink.Dropped(); dropped > 0 {
		fmt.Fprintf(os.Stderr, "canalyze: warning: %d events dropped\n", dropped)
	}
	var err error
	switch *format {
	case "chrome":
		err = sink.WriteChromeTrace(os.Stdout)
	case "timeline":
		err = sink.WriteTimeline(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "canalyze: unknown format %q\n", *format)
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
}

// emitObs replays the trace into an obs tracer, one instant per record,
// making a captured (or parsed) CAN trace an ordinary obs event source:
// subsystem "can", name "frame" (or "frame-error" for corrupted records),
// Str = sender, Arg1 = frame ID, Arg2 = payload length. The candump text
// format and the Chrome/timeline exports thus render the same records.
// No-op on a nil tracer.
func emitObs(t *netif.Trace, tr *obs.Tracer) {
	if tr == nil {
		return
	}
	sub := tr.Label("can")
	frame := tr.Label("frame")
	frameErr := tr.Label("frame-error")
	for i := range t.Records {
		r := &t.Records[i]
		name := frame
		if r.Corrupted {
			name = frameErr
		}
		tr.Instant(r.At, sub, name, tr.Label(r.Frame.Sender), int64(r.Frame.ID), int64(len(r.Frame.Payload)))
	}
}

// nextPow2 sizes the tracer ring to hold the whole trace.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func loadTrace(path string) *netif.Trace {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tr, err := can.ParseTrace(f)
	if err != nil {
		fatal(err)
	}
	return tr
}

func lastTime(tr *netif.Trace) sim.Time {
	if tr.Len() == 0 {
		return 0
	}
	return tr.Records[tr.Len()-1].At
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "canalyze: %v\n", err)
	os.Exit(1)
}
