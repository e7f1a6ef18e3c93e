package experiments

import (
	"fmt"

	"autosec/internal/can"
	"autosec/internal/fleet"
	"autosec/internal/ids"
	"autosec/internal/ieee1609"
	"autosec/internal/netif"
	"autosec/internal/sidechannel"
	"autosec/internal/sim"
	"autosec/internal/v2x"
	"autosec/internal/workload"
)

// E1BusDoS quantifies §4.1's availability attack model on the IVN: a
// compromised node floods the highest-priority identifier and measures
// what happens to legitimate traffic latency and to detection.
func E1BusDoS(seed uint64) *Table {
	t := &Table{
		ID:      "E1",
		Title:   "CAN bus denial of service (availability attack, §4.1)",
		Claim:   "an attacker can deny the user or system of a service by flooding the IVN",
		Columns: []string{"attack rate (fps)", "bus load", "victim p99 latency (ms)", "victim miss rate", "victim dropped", "IDS alerts"},
	}
	for _, atkPeriod := range []sim.Duration{0, 2 * sim.Millisecond, 500 * sim.Microsecond, 200 * sim.Microsecond} {
		k := sim.NewKernel(seed)
		bus := can.NewBus(k, "powertrain", 500_000)

		// Legit periodic traffic from the standard matrix.
		_, stopTraffic := workload.StartSenders(k, bus, workload.PowertrainMatrix(), 0.01)

		// The monitored victim message: 10ms period, deadline = period.
		victim := can.NewController("victim")
		victim.MaxQueue = 16
		bus.Attach(victim)
		var lat sim.Summary
		lat.Reserve(1000) // one sample per 10ms period over the 10s horizon
		misses, sends := 0, 0
		k.Every(0, 10*sim.Millisecond, func() {
			sends++
			sent := k.Now()
			err := victim.Send(can.Frame{ID: 0x0A0, Data: make([]byte, 8)}, func(at sim.Time) {
				l := at - sent
				lat.Observe(l.Millis())
				if l > 10*sim.Millisecond {
					misses++
				}
			})
			if err != nil {
				misses++
			}
		})

		// IDS trained on clean traffic.
		eng := ids.NewEngine(ids.NewFrequencyDetector(), ids.NewSpecDetector())
		clean := workload.SyntheticTrace(workload.PowertrainMatrix(), 10*sim.Second, seed, 0.01)
		appendPeriodic(clean, 0x0A0, 10*sim.Millisecond, 8, 10*sim.Second)
		eng.Train(clean)
		eng.Attach(can.Netif(bus))

		// The attacker floods ID 0x000 (wins every arbitration round).
		var stopAtk func()
		if atkPeriod > 0 {
			atk := can.NewController("attacker")
			atk.MaxQueue = 4
			bus.Attach(atk)
			stopAtk = can.PeriodicSender(k, atk, can.Frame{ID: 0x000, Data: make([]byte, 8)}, atkPeriod, 0)
		}

		_ = k.RunUntil(10 * sim.Second)
		stopTraffic()
		if stopAtk != nil {
			stopAtk()
		}

		rate := "0"
		if atkPeriod > 0 {
			rate = fmt.Sprintf("%d", int(sim.Second/atkPeriod))
		}
		missRate := float64(misses) / float64(sends)
		t.AddRow(rate, bus.Load(), lat.Quantile(0.99), missRate,
			victim.FramesDropped.Value, len(eng.Alerts))
	}
	return t
}

// appendPeriodic extends a training trace with a periodic message so the
// statistical detectors learn it as part of the baseline.
func appendPeriodic(tr *netif.Trace, id can.ID, period sim.Duration, size int, dur sim.Duration) {
	for at := sim.Time(0); at < dur; at += period {
		tr.Records = append(tr.Records, can.NetifRecord(at, can.Frame{ID: id, Data: make([]byte, size)}, ""))
	}
}

// E2SideChannel quantifies §4.2's side-channel leakage claim: traces
// needed to extract an AES key at increasing noise, with and without the
// first-order masking countermeasure.
func E2SideChannel(seed uint64) *Table {
	t := &Table{
		ID:      "E2",
		Title:   "CPA key extraction from the SHE power model (§4.2)",
		Claim:   "with physical access, side-channel leakage exposes cryptographic keys; countermeasures raise the cost",
		Columns: []string{"noise sigma", "impl", "attack", "traces to full key", "key recovered"},
	}
	key := [16]byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	type setup struct {
		sigma  float64
		masked bool
		attack func(*sidechannel.TraceSet) [16]byte
		name   string
		limit  int
	}
	setups := []setup{
		{0.5, false, sidechannel.CPA, "1st-order CPA", 16384},
		{2.0, false, sidechannel.CPA, "1st-order CPA", 16384},
		{4.0, false, sidechannel.CPA, "1st-order CPA", 65536},
		{0.5, true, sidechannel.CPA, "1st-order CPA", 8192},
		{0.5, true, sidechannel.SecondOrderCPA, "2nd-order CPA", 65536},
	}
	for i, s := range setups {
		cfg := sidechannel.Config{NoiseSigma: s.sigma, Masked: s.masked}
		rng := sim.NewStream(seed+uint64(i), "e2")
		n := sidechannel.TracesToRecover(key, cfg, s.attack, 64, s.limit, func(n int) *sidechannel.TraceSet {
			return sidechannel.Acquire(key, n, cfg, rng)
		})
		impl := "unmasked"
		if s.masked {
			impl = "masked"
		}
		needed := fmt.Sprintf("%d", n)
		recovered := "yes"
		if n == 0 {
			needed = fmt.Sprintf(">%d", s.limit)
			recovered = "no"
		}
		t.AddRow(s.sigma, impl, s.name, needed, recovered)
	}
	return t
}

// E3FleetCompromise quantifies §4.2's bulk-production claim: one key,
// extracted from one vehicle, applied fleet-wide under each provisioning
// policy.
func E3FleetCompromise(seed uint64) *Table {
	t := &Table{
		ID:      "E3",
		Title:   "Fleet compromise from one extracted key (§4.2)",
		Claim:   "one compromised ECU can lead to severe security compromise of a whole class",
		Columns: []string{"provisioning", "fleet size", "models", "compromised", "fraction"},
	}
	var master [16]byte
	for i := range master {
		master[i] = byte(seed >> (i % 8 * 8))
	}
	master[0] |= 1
	const size, models = 1000, 10
	for _, pol := range []fleet.Policy{fleet.SharedKey, fleet.PerModel, fleet.PerDevice} {
		f := fleet.New(size, models, pol, master, 1)
		res := f.AssessCompromise(0)
		t.AddRow(pol.String(), size, models, res.Compromised, res.Fraction())
	}
	return t
}

// E4Pseudonym quantifies §4.2's security/privacy conundrum: pseudonym
// rotation defeats naive tracking but costs certificates, and a
// continuity-linking tracker claws back much of the loss under dense
// coverage.
func E4Pseudonym(seed uint64) *Table {
	t := &Table{
		ID:      "E4",
		Title:   "Pseudonym rotation vs location tracking (§4.2)",
		Claim:   "trusting in-field communications requires authentication, which conflicts with the sender's privacy",
		Columns: []string{"rotation", "tracker", "tracking success", "tracks", "certs/hour"},
	}
	run := func(rotation sim.Duration, linkWindow sim.Duration, linkRadius float64) (float64, int) {
		k := sim.NewKernel(seed)
		root, err := ieee1609.NewRootAuthority("root", []ieee1609.PSID{ieee1609.PSIDBasicSafety}, 0, sim.Hour*1000)
		if err != nil {
			panic(err)
		}
		f := v2x.NewField(k, v2x.Radio{RangeM: 300, LossProb: 0.05, PropDelayPerM: 4}, v2x.DefaultVerifyModel())
		pool, err := ieee1609.NewPseudonymPool(root, 64, []ieee1609.PSID{ieee1609.PSIDBasicSafety}, 0, sim.Hour*1000, rotation)
		if err != nil {
			panic(err)
		}
		veh := f.AddVehicle("target", v2x.Position{}, pool, ieee1609.NewStore(root.Cert))
		veh.SetVelocity(20, 0)
		tr := &v2x.Tracker{RangeM: 300, LinkWindow: linkWindow, LinkRadius: linkRadius}
		for x := 0.0; x <= 1300; x += 400 {
			tr.Antennas = append(tr.Antennas, v2x.Position{X: x})
		}
		tr.Attach(f)
		stop := veh.StartBeacon(100 * sim.Millisecond)
		_ = k.RunUntil(60 * sim.Second)
		stop()
		return tr.TrackingSuccess(60 * sim.Second), len(tr.Reconstruct())
	}
	rotations := []sim.Duration{0, 30 * sim.Second, 5 * sim.Second, sim.Second}
	for _, rot := range rotations {
		label := "none"
		certsPerHour := 1.0
		effRot := rot
		if rot == 0 {
			effRot = sim.Hour * 1000
		} else {
			label = rot.String()
			certsPerHour = float64(sim.Hour) / float64(rot)
		}
		naive, nt := run(effRot, 0, 0)
		t.AddRow(label, "naive", naive, nt, fmt.Sprintf("%.0f", certsPerHour))
		linked, lt := run(effRot, sim.Second, 50)
		t.AddRow(label, "continuity", linked, lt, fmt.Sprintf("%.0f", certsPerHour))
	}
	return t
}
