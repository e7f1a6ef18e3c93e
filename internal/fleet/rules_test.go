package fleet

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"autosec/internal/can"
	"autosec/internal/core"
	"autosec/internal/gateway"
	"autosec/internal/sim"
)

// sharedRules is one rule slice that every vehicle of a drive installs,
// the way a scenario that builds its policy once would.
var sharedRules = []*gateway.Rule{{
	Name: "shared", From: core.DomainInfotainment, To: []string{core.DomainPowertrain},
	IDLo: 0, IDHi: 0x7FF, Action: gateway.Allow,
}}

// rulesScenario installs the rule slice rules returns, drives
// infotainment traffic across it and fingerprints the run.
func rulesScenario(rules func() []*gateway.Rule) func(int, *core.Vehicle) (string, error) {
	return func(idx int, v *core.Vehicle) (string, error) {
		if v.Zonal != nil {
			v.Zonal.SetRules(rules())
		} else {
			v.Gateway.SetRules(rules())
		}
		c := can.NewController("rules-src")
		v.Buses[core.DomainInfotainment].Attach(c)
		v.Kernel.Every(sim.Duration(100+idx)*sim.Microsecond, 500*sim.Microsecond, func() {
			_ = c.Send(can.Frame{ID: can.ID(0x100 + idx%8), Data: []byte{byte(idx)}}, nil)
		})
		if err := v.Kernel.RunUntil(4 * sim.Millisecond); err != nil {
			return "", err
		}
		fwd := int64(0)
		if v.Zonal != nil {
			for _, z := range v.Zonal.Zones() {
				fwd += z.GW.Forwarded.Value
			}
		} else {
			fwd = v.Gateway.Forwarded.Value
		}
		return fmt.Sprintf("idx=%d steps=%d audit=%d forwarded=%d", idx, v.Kernel.Steps(), v.Audit.Len(), fwd), nil
	}
}

// TestSharedRuleSliceSurvivesReset: a rule slice the caller passes to
// SetRules stays the caller's. Pooled vehicles that all install one
// shared slice must run exactly like vehicles that each build their own,
// and Reset must leave the caller's entries in place. Zonal builds only
// read logical rules, so they may share the slice across workers; a
// central gateway writes each rule's counters, so it shares at one
// worker only.
func TestSharedRuleSliceSurvivesReset(t *testing.T) {
	want := sharedRules[0]
	for _, tc := range []struct {
		name    string
		cfg     core.Config
		workers int
	}{
		{"zonal/1", canonicalConfig(), 1},
		{"zonal/2", canonicalConfig(), 2},
		{"central/1", core.Config{VIN: "SHARED-C", Seed: 3}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sharedRules[0] = want // each case starts from the caller's rule
			const n = 4
			got, _, err := DriveObs(context.Background(), Driver{Cfg: tc.cfg, N: n, Workers: tc.workers}, ObsOptions{},
				rulesScenario(func() []*gateway.Rule { return sharedRules }))
			if err != nil {
				t.Fatalf("shared rule slice: %v", err)
			}
			if len(sharedRules) != 1 || sharedRules[0] != want {
				t.Fatalf("drive rewrote the caller's rule slice: %v", sharedRules)
			}
			ref, _, err := DriveObs(context.Background(), Driver{Cfg: tc.cfg, N: n, Workers: tc.workers}, ObsOptions{},
				rulesScenario(func() []*gateway.Rule {
					r := *want
					r.Matched, r.RateDrops = sim.Counter{}, sim.Counter{}
					return []*gateway.Rule{&r}
				}))
			if err != nil {
				t.Fatalf("per-vehicle rule slices: %v", err)
			}
			if a, b := strings.Join(got, "\n"), strings.Join(ref, "\n"); a != b {
				t.Fatalf("shared slice diverged from per-vehicle slices:\n--- shared\n%s\n--- own\n%s", a, b)
			}
		})
	}
}
