package sim

import (
	"fmt"
	"strings"
	"testing"
)

// runGroupOrderingScript interprets fuzz bytes as a cross-kernel message
// script: byte 0 picks the member count, byte 1 the lookahead, and each
// following (src, dst, delay) triple seeds one message chain — an event
// on src that sends to dst at now+L+delay, whose delivery forwards the
// chain onward with a depth drawn from the delay byte. Every delivery
// checks the safe-horizon invariant (arrival >= send time + lookahead)
// and the exact arrival instant, logging a VIOLATION or LATE line when
// either fails. The script only constructs invariant-respecting sends;
// Send panicking on anything else is pinned separately by
// TestGroupSendLookaheadViolationPanics.
func runGroupOrderingScript(data []byte) string {
	if len(data) < 5 {
		return ""
	}
	members := 2 + int(data[0])%6
	lookahead := Duration(1 + int(data[1]))
	g := NewKernelGroup(uint64(len(data)), lookahead)
	logs := make([]*[]string, members)
	for i := 0; i < members; i++ {
		logs[i] = &[]string{}
		g.Kernel(i)
	}

	var chain func(member, depth int, jitter Duration)
	chain = func(member, depth int, jitter Duration) {
		k := g.Kernel(member)
		at := k.Now()
		*logs[member] = append(*logs[member], fmt.Sprintf("m%d d%d @%d", member, depth, at))
		if depth <= 0 {
			return
		}
		to := (member + 1 + int(jitter)%members) % members
		sent := at
		g.Send(member, to, at+lookahead+jitter, func() {
			rk := g.Kernel(to)
			if rk.Now() < sent+lookahead {
				*logs[to] = append(*logs[to], fmt.Sprintf("VIOLATION @%d < %d", rk.Now(), sent+lookahead))
				return
			}
			if rk.Now() != sent+lookahead+jitter {
				*logs[to] = append(*logs[to], fmt.Sprintf("LATE @%d want %d", rk.Now(), sent+lookahead+jitter))
				return
			}
			chain(to, depth-1, jitter/2)
		})
	}

	for i := 2; i+2 < len(data); i += 3 {
		src := int(data[i]) % members
		delay := Duration(data[i+2])
		depth := 1 + int(data[i+2])%4
		at := Time(int(data[i+1])) * 3
		idx := i
		g.Kernel(src).At(at, func() { chain(src, depth, delay+Duration(idx%5)) })
	}

	// Run must terminate: windowed rounds always dispatch the horizon
	// event, so a hang here is a deadlock bug the fuzzer would surface
	// as a timeout.
	if err := g.Run(); err != nil {
		return "halted: " + err.Error()
	}
	var b strings.Builder
	for i, lg := range logs {
		fmt.Fprintf(&b, "== m%d now=%d steps=%d\n", i, g.Kernel(i).Now(), g.Kernel(i).Steps())
		for _, line := range *lg {
			b.WriteString(line)
			b.WriteString("\n")
		}
	}
	return b.String()
}

// FuzzKernelGroupOrdering fuzzes the inter-kernel message ordering:
// arbitrary (source, destination, delay) scripts must never violate the
// safe-horizon invariant, must deliver every message at exactly its
// deadline, and must never deadlock (Run terminates).
func FuzzKernelGroupOrdering(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3})
	f.Add([]byte{3, 17, 0, 1, 200, 1, 2, 7, 2, 0, 255, 5, 3, 64})
	f.Add([]byte{255, 1, 9, 9, 9, 0, 0, 0, 1, 1, 1, 2, 2, 2})
	f.Add([]byte{2, 100, 0, 50, 10, 1, 50, 10, 0, 25, 128, 1, 25, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		if out := runGroupOrderingScript(data); strings.Contains(out, "VIOLATION") || strings.Contains(out, "LATE") {
			t.Fatalf("safe-horizon invariant violated:\n%s", out)
		}
	})
}
