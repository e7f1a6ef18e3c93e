package someip

import "encoding/binary"

// This file is the wire-monitoring side of the package: a zero-copy
// header peek. The service middleware itself trusts the transport (that
// is the point the tests make); the peek is what lets a compensating
// control — the IDS's SOME/IP detector — decode service/method/eventgroup
// metadata out of frames in flight and reason at the service level
// instead of seeing one opaque EtherType.

// Header is the fixed SOME/IP header view of one PDU, decoded without
// copying or allocating. Method carries the method ID for RPC and the
// eventgroup for pub/sub and discovery messages.
type Header struct {
	Service    uint16
	Method     uint16
	Client     uint16
	Session    uint16
	Type       MessageType
	ReturnCode byte
	PayloadLen int
}

// PeekHeader decodes the header of a wire-encoded SOME/IP message
// in place. It performs the same validation as the full decoder but
// never touches the payload bytes, so it is allocation-free and safe
// on zero-copy netif payload views. Returns ok=false on a malformed
// or truncated message.
func PeekHeader(b []byte) (Header, bool) {
	if len(b) < 14 {
		return Header{}, false
	}
	n := int(binary.BigEndian.Uint32(b[4:]))
	if n < 12 || len(b) < n+2 {
		return Header{}, false
	}
	return Header{
		Service:    binary.BigEndian.Uint16(b[0:]),
		Method:     binary.BigEndian.Uint16(b[2:]),
		Client:     binary.BigEndian.Uint16(b[8:]),
		Session:    uint16(b[n])<<8 | uint16(b[n+1]),
		Type:       MessageType(b[10]),
		ReturnCode: b[11],
		PayloadLen: n - 12,
	}, true
}
