package experiments

import (
	"sort"

	"autosec/internal/can"
	"autosec/internal/ids"
	"autosec/internal/netif"
	"autosec/internal/sim"
	"autosec/internal/workload"
)

// E11IDS quantifies §7's Secure Networks position: CAN "lacks security
// mechanisms", so an IDS is the compensating control. Each classic attack
// class is injected into realistic traffic and scored per detector family
// and for the combined engine.
func E11IDS(seed uint64) *Table {
	t := &Table{
		ID:      "E11",
		Title:   "IVN intrusion detection across attack classes (§7)",
		Claim:   "most commonly used IVN protocols lack security mechanisms; detection must compensate",
		Columns: []string{"attack", "detectors", "detection rate", "false positives/window"},
	}
	const trainDur = 20 * sim.Second
	const liveDur = 30 * sim.Second
	attackLo, attackHi := 10*sim.Second, 15*sim.Second

	train := workload.SyntheticTrace(workload.PowertrainMatrix(), trainDur, seed, 0.01)

	windows := []ids.Window{
		{Lo: 0, Hi: attackLo, Attack: false},
		{Lo: attackLo, Hi: attackHi, Attack: true},
		{Lo: attackHi, Hi: liveDur, Attack: false},
	}

	// Attack injectors mutate a fresh clean live trace.
	rnd := sim.NewStream(seed, "e11")
	type attackCase struct {
		name   string
		mutate func(tr *netif.Trace)
	}
	cases := []attackCase{
		{"flood (1kHz on 0x0C0)", func(tr *netif.Trace) {
			for at := attackLo; at < attackHi; at += sim.Millisecond {
				tr.Records = append(tr.Records, can.NetifRecord(at,
					can.Frame{ID: 0x0C0, Data: make([]byte, 8)}, "attacker"))
			}
		}},
		{"targeted injection (racing 0x100)", func(tr *netif.Trace) {
			var adds []netif.Record
			for _, r := range tr.Records {
				if r.Frame.ID == 0x100 && r.At >= attackLo && r.At < attackHi {
					adds = append(adds, can.NetifRecord(r.At+500*sim.Microsecond,
						can.Frame{ID: 0x100, Data: []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}}, "attacker"))
				}
			}
			tr.Records = append(tr.Records, adds...)
		}},
		{"suspension (0x120 silenced)", func(tr *netif.Trace) {
			kept := tr.Records[:0]
			for _, r := range tr.Records {
				if r.Frame.ID == 0x120 && r.At >= attackLo && r.At < attackHi {
					continue
				}
				kept = append(kept, r)
			}
			tr.Records = kept
		}},
		{"fuzzing (random payloads on 0x1A0)", func(tr *netif.Trace) {
			for i, r := range tr.Records {
				if r.Frame.ID == 0x1A0 && r.At >= attackLo && r.At < attackHi {
					b := make([]byte, len(r.Frame.Payload))
					rnd.Bytes(b)
					tr.Records[i].Frame.Payload = b
				}
			}
		}},
		{"unknown diagnostic ID (0x7DF)", func(tr *netif.Trace) {
			for at := attackLo; at < attackHi; at += 50 * sim.Millisecond {
				tr.Records = append(tr.Records, can.NetifRecord(at,
					can.Frame{ID: 0x7DF, Data: []byte{0x02, 0x10, 0x01}}, "attacker"))
			}
		}},
		{"none (clean baseline)", func(*netif.Trace) {}},
	}

	detectorSets := []struct {
		name  string
		build func() []ids.Detector
	}{
		{"frequency", func() []ids.Detector { return []ids.Detector{ids.NewFrequencyDetector()} }},
		{"interval", func() []ids.Detector { return []ids.Detector{ids.NewIntervalDetector()} }},
		{"entropy", func() []ids.Detector { return []ids.Detector{ids.NewEntropyDetector()} }},
		{"spec", func() []ids.Detector { return []ids.Detector{ids.NewSpecDetector()} }},
		{"all four", func() []ids.Detector {
			return []ids.Detector{ids.NewFrequencyDetector(), ids.NewIntervalDetector(), ids.NewEntropyDetector(), ids.NewSpecDetector()}
		}},
	}

	for _, ac := range cases {
		live := workload.SyntheticTrace(workload.PowertrainMatrix(), liveDur, seed+1, 0.01)
		ac.mutate(live)
		sort.SliceStable(live.Records, func(i, j int) bool { return live.Records[i].At < live.Records[j].At })
		w := windows
		if ac.name == "none (clean baseline)" {
			w = []ids.Window{{Lo: 0, Hi: liveDur, Attack: false}}
		}
		for _, ds := range detectorSets {
			// Per-detector rows only for the combined row's components when
			// they add signal; always include the "all four" engine.
			m := ids.Evaluate(ds.build(), train, live, w, 200*sim.Millisecond)
			t.AddRow(ac.name, ds.name, m.DetectionRate(), m.FalsePositiveRate())
		}
	}
	return t
}
