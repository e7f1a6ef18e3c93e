package ethernet

import "autosec/internal/sim"

// DefaultLinkBps is the port speed every switch port comes up with
// (100 Mbit/s automotive Ethernet).
const DefaultLinkBps int64 = 100_000_000

// WireDuration reports the serialization delay of an Ethernet frame
// carrying payloadLen bytes at linkBps — minimum-frame padding, VLAN
// tag, FCS, preamble and inter-frame gap included (Frame.WireBytes). The
// switch times both ingress and egress with it, so a model that derives
// crossing times from it agrees with the switch bit for bit.
func WireDuration(payloadLen int, linkBps int64) sim.Duration {
	return sim.Duration(float64(wireBytes(payloadLen)*8) / float64(linkBps) * 1e9)
}

// TunnelLookahead reports the minimum residence time of any frame
// crossing a store-and-forward switch: ingress serialization of the
// smallest legal frame, the switch's fixed processing latency, and
// egress serialization. Nothing — tunnelled CAN/LIN/FlexRay frames or
// native Ethernet — crosses a backbone hop faster, which makes this the
// conservative-PDES lookahead for simulations partitioned at the
// backbone (sim.KernelGroup): a zone may dispatch lookahead beyond the
// global horizon before any cross-zone frame can possibly arrive.
//
// At the defaults (100 Mbit/s links, 2us switch latency) the minimum
// frame is 88 wire bytes (46B padded payload + 42B of header, VLAN tag,
// FCS, preamble and IFG), so the lookahead is 2x7040ns + 2000ns =
// 16080ns.
func TunnelLookahead(switchLatency sim.Duration, linkBps int64) sim.Duration {
	return 2*WireDuration(0, linkBps) + switchLatency
}
