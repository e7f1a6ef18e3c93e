package autosec_test

import (
	"context"
	"runtime"
	"testing"

	"autosec/internal/experiments"
	"autosec/internal/runner"
)

// One benchmark per experiment table: `go test -bench .` regenerates the
// full evaluation of DESIGN.md/EXPERIMENTS.md. Each iteration rebuilds
// the experiment from scratch, so ns/op is the cost of reproducing that
// table. The table itself is printed once per benchmark via b.Log (shown
// with -v).

func benchTable(b *testing.B, run func(seed uint64) *experiments.Table) {
	b.Helper()
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		last = run(1)
	}
	if last != nil {
		b.Log("\n" + last.String())
	}
}

func BenchmarkE1BusDoS(b *testing.B)         { benchTable(b, experiments.E1BusDoS) }
func BenchmarkE2CPA(b *testing.B)            { benchTable(b, experiments.E2SideChannel) }
func BenchmarkE3Fleet(b *testing.B)          { benchTable(b, experiments.E3FleetCompromise) }
func BenchmarkE4Pseudonym(b *testing.B)      { benchTable(b, experiments.E4Pseudonym) }
func BenchmarkE5Tradeoff(b *testing.B)       { benchTable(b, experiments.E5Tradeoff) }
func BenchmarkE6Verif(b *testing.B)          { benchTable(b, experiments.E6Verification) }
func BenchmarkE7AuthCAN(b *testing.B)        { benchTable(b, experiments.E7AuthenticatedCAN) }
func BenchmarkE8Gateway(b *testing.B)        { benchTable(b, experiments.E8Gateway) }
func BenchmarkE9Relay(b *testing.B)          { benchTable(b, experiments.E9Relay) }
func BenchmarkE10OTA(b *testing.B)           { benchTable(b, experiments.E10OTA) }
func BenchmarkE11IDS(b *testing.B)           { benchTable(b, experiments.E11IDS) }
func BenchmarkE12Lifetime(b *testing.B)      { benchTable(b, experiments.E12Lifetime) }
func BenchmarkE13Diagnostics(b *testing.B)   { benchTable(b, experiments.E13DiagnosticAccess) }
func BenchmarkE14BusOff(b *testing.B)        { benchTable(b, experiments.E14BusOff) }
func BenchmarkE15VerifyScaling(b *testing.B) { benchTable(b, experiments.E15VerifyScaling) }
func BenchmarkE16CrossMedium(b *testing.B)   { benchTable(b, experiments.E16CrossMediumGateway) }
func BenchmarkE17Zonal(b *testing.B)         { benchTable(b, experiments.E17Zonal) }
func BenchmarkE18Fleet(b *testing.B)         { benchTable(b, experiments.E18Fleet) }
func BenchmarkE19KernelPar(b *testing.B)     { benchTable(b, experiments.E19KernelPar) }
func BenchmarkE20Observability(b *testing.B) { benchTable(b, experiments.E20Observability) }
func BenchmarkE21MediumIDS(b *testing.B)     { benchTable(b, experiments.E21MediumIDS) }
func BenchmarkE22Campaign(b *testing.B)      { benchTable(b, experiments.E22Campaign) }
func BenchmarkA1MACTruncation(b *testing.B)  { benchTable(b, experiments.A1MACTruncation) }
func BenchmarkA2BoundingSweep(b *testing.B)  { benchTable(b, experiments.A2BoundingThreshold) }

// Multi-seed replication, serial vs parallel. The pair measures (not
// assumes) the speedup of sharding replicates across the worker pool:
// compare ns/op between Serial and Parallel with
//
//	go test -bench 'Replication8Seeds' -benchtime 3x
//
// The suite is the two simulation-heavy bus experiments so one iteration
// stays around a second; the aggregation itself is microseconds.

func replicationSuite(seed uint64) []*experiments.Table {
	return []*experiments.Table{
		experiments.E1BusDoS(seed),
		experiments.E14BusOff(seed),
	}
}

func benchReplication(b *testing.B, workers int) {
	b.Helper()
	seeds := runner.Seeds(1, 8)
	var last []*experiments.Table
	for i := 0; i < b.N; i++ {
		tables, err := runner.ReplicateAggregate(context.Background(), replicationSuite, seeds, workers)
		if err != nil {
			b.Fatal(err)
		}
		last = tables
	}
	if len(last) > 0 {
		b.Log("\n" + last[0].String())
	}
}

func BenchmarkReplication8SeedsSerial(b *testing.B) { benchReplication(b, 1) }
func BenchmarkReplication8SeedsParallel(b *testing.B) {
	benchReplication(b, runtime.GOMAXPROCS(0))
}
