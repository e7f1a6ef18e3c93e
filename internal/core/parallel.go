// Per-zone-kernel simulation. A vehicle built with
// ZonalConfig.PerZoneKernels runs each zone on its own sim.Kernel under a
// conservative sim.KernelGroup: intra-zone traffic (CAN arbitration,
// workload matrices, IDS inference, local gateway verdicts) dispatches
// in whole lookahead windows on its zone's kernel, and only backbone
// crossings synchronize, with the Ethernet tunnel latency as lookahead.
// Execution is byte-deterministic, and a pooled Reset replays a fresh
// build exactly — the property TestKernelParResetEquivalence enforces.
//
// Rules for scenario code driving a per-zone-kernel vehicle:
//
//   - Schedule domain work on KernelFor(domain), never on Vehicle.Kernel
//     unless the domain shards into zone 0.
//   - Drive time with Vehicle.RunUntil (the group), not the member
//     kernels' own Run methods.
//   - Shared subsystems that are not kernel-local — the SHE, the audit
//     log, Fusion, Keyless — may only be touched from member 0's kernel
//     or between runs; gateway/IDS events reach the audit log through
//     the per-member staging buffers automatically.
//   - Read cross-zone aggregates (zonal totals, group Steps) between
//     runs only.
package core

import (
	"autosec/internal/sim"
)

// backboneHopLatency is the fixed store-and-forward processing latency of
// the zonal backbone switch. Shared-kernel builds give it to the modelled
// ethernet.Switch; per-zone-kernel builds give it to the partitioned
// backbone, whose minimum crossing time (ethernet.TunnelLookahead) then
// bounds the kernel group's lookahead.
const backboneHopLatency = 2 * sim.Microsecond

// standardDomainZone returns the zone index a standard domain shards
// into: powertrain fronts the first zone, infotainment (the exposed
// domain) the last, chassis the middle.
func standardDomainZone(name string, zones int) int {
	switch name {
	case DomainChassis:
		return (zones - 1) / 2
	case DomainInfotainment:
		return zones - 1
	default:
		return 0
	}
}

// KernelFor returns the kernel that owns a domain's events: the owning
// zone's member kernel on a per-zone-kernel build, the vehicle kernel
// otherwise. Scenario code scheduling domain traffic must use it.
func (v *Vehicle) KernelFor(domain string) *sim.Kernel {
	if v.Zonal != nil {
		if z, ok := v.Zonal.ZoneOf(domain); ok {
			return z.Kernel()
		}
	}
	return v.Kernel
}

// RunUntil drives the vehicle to virtual time t (inclusive).
func (v *Vehicle) RunUntil(t sim.Time) error {
	if v.Group != nil {
		return v.Group.RunUntil(t)
	}
	return v.Kernel.RunUntil(t)
}

// Deprecated: kernel groups dispatch serially, so SetParallelism does nothing.
func (v *Vehicle) SetParallelism(int) {}

// stagedAudit is one audit event waiting in a member's staging buffer
// for the barrier merge.
type stagedAudit struct {
	at  sim.Time
	src string
	msg string
}

// mergeAuditStages drains the per-member staging buffers into the sealed
// audit log in (time, member) order. It runs at every group barrier, so
// Append (and the SHE sealing inside it) sees events in global time
// order rather than member dispatch order; entries within one member's
// buffer are already in nondecreasing time order because its kernel
// staged them in dispatch order. The merge order depends only on staged
// content.
func (v *Vehicle) mergeAuditStages() {
	if v.staged == 0 {
		return
	}
	v.staged = 0
	idx := v.stageIdx
	for {
		best := -1
		for m := range v.auditStage {
			i := idx[m]
			if i >= len(v.auditStage[m]) {
				continue
			}
			if best == -1 || v.auditStage[m][i].at < v.auditStage[best][idx[best]].at {
				best = m
			}
		}
		if best == -1 {
			break
		}
		e := v.auditStage[best][idx[best]]
		idx[best]++
		v.Audit.Append(e.at, e.src, e.msg)
	}
	for m := range v.auditStage {
		v.auditStage[m] = v.auditStage[m][:0]
		idx[m] = 0
	}
}
