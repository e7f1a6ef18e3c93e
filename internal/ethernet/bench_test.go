package ethernet

import (
	"testing"

	"autosec/internal/sim"
)

// BenchmarkSwitchForward times one frame through a warm switch — ingress
// serialization, forward, egress serialization, delivery — for a learned
// unicast and a broadcast flooded to two ports. CI greps it for
// 0 allocs/op.
func BenchmarkSwitchForward(b *testing.B) {
	for _, bc := range []struct {
		name string
		dst  MAC
	}{
		{"unicast", LocalMAC(2)},
		{"flood", Broadcast},
	} {
		b.Run(bc.name, func(b *testing.B) {
			k := sim.NewKernel(1)
			sw := NewSwitch(k, "sw0", 2*sim.Microsecond)
			src := NewHost("src", LocalMAC(1))
			dst := NewHost("dst", LocalMAC(2))
			sw.Connect(src, 1)
			sw.Connect(dst, 1)
			sw.Connect(NewHost("other", LocalMAC(3)), 1)
			_ = dst.Send(Frame{Dst: Broadcast}) // the switch learns dst
			_ = k.Run()
			f := Frame{Dst: bc.dst, EtherType: 0x88B5, Payload: make([]byte, 64)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := src.Send(f); err != nil {
					b.Fatal(err)
				}
				_ = k.Run()
			}
		})
	}
}
