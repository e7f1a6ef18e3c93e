// Package doip implements an ISO 13400-flavoured Diagnostics-over-IP
// layer on the automotive Ethernet substrate: vehicle identification,
// routing activation, and diagnostic message transport between a tester's
// logical address and ECU logical addresses — the next-generation
// diagnostics path the paper's Secure Networks layer anticipates
// ("automotive Ethernet ... is supposed to provide more intrusion
// detection capabilities and stricter separation").
//
// Two of that claim's mechanisms are directly testable here: VLAN
// separation decides who can reach the DoIP entity at all, and routing
// activation (optionally authenticated) gates diagnostic traffic even for
// hosts that can.
package doip

import (
	"encoding/binary"
	"errors"
	"fmt"

	"autosec/internal/ethernet"
	"autosec/internal/sim"
)

// EtherTypeDoIP is the (model's) EtherType carrying DoIP payloads.
const EtherTypeDoIP = 0x9000

// Payload types (ISO 13400-2).
const (
	TypeVehicleIDRequest   = 0x0001
	TypeVehicleIDResponse  = 0x0004
	TypeRoutingActivation  = 0x0005
	TypeRoutingActResponse = 0x0006
	TypeDiagMessage        = 0x8001
	TypeDiagAck            = 0x8002
	TypeDiagNack           = 0x8003
)

// Routing activation response codes.
const (
	ActDeniedUnknownSource = 0x00
	ActDeniedAuthRequired  = 0x04
	ActSuccess             = 0x10
)

// Diag NACK codes.
const (
	NackInvalidSource   = 0x02
	NackUnknownTarget   = 0x03
	NackRoutingInactive = 0x06
)

// header is the 8-byte DoIP header.
const headerLen = 8
const protocolVersion = 0x02

func encodeHeader(payloadType uint16, length int) []byte {
	h := make([]byte, headerLen)
	h[0] = protocolVersion
	h[1] = ^byte(protocolVersion)
	binary.BigEndian.PutUint16(h[2:], payloadType)
	binary.BigEndian.PutUint32(h[4:], uint32(length))
	return h
}

// Errors.
var (
	ErrMalformed = errors.New("doip: malformed message")
	ErrVersion   = errors.New("doip: protocol version mismatch")
)

func parseHeader(b []byte) (payloadType uint16, payload []byte, err error) {
	if len(b) < headerLen {
		return 0, nil, ErrMalformed
	}
	if b[0] != protocolVersion || b[1] != ^byte(protocolVersion) {
		return 0, nil, ErrVersion
	}
	pt := binary.BigEndian.Uint16(b[2:])
	n := int(binary.BigEndian.Uint32(b[4:]))
	if len(b) < headerLen+n {
		return 0, nil, ErrMalformed
	}
	return pt, b[headerLen : headerLen+n], nil
}

// Entity is the vehicle-side DoIP node: it answers identification
// requests, arbitrates routing activation, and relays diagnostic messages
// to registered ECU handlers.
type Entity struct {
	VIN  string
	host *ethernet.Host
	// LogicalAddress is the entity's own address.
	LogicalAddress uint16
	// Auth, when non-nil, must approve a routing activation (OEM
	// authentication extension); nil means open activation. key aliases
	// the received frame and is valid only during the call.
	Auth func(source uint16, key []byte) bool

	// activated maps tester logical address -> activated.
	activated map[uint16]bool
	// ecus maps target logical address -> UDS-ish request handler that
	// returns the response bytes.
	ecus map[uint16]func(req []byte) []byte

	IdentRequests sim.Counter
	Activations   sim.Counter
	ActDenied     sim.Counter
	DiagForwarded sim.Counter
	DiagNacked    sim.Counter
}

// NewEntity binds a DoIP entity to an Ethernet host.
func NewEntity(host *ethernet.Host, vin string, logical uint16) *Entity {
	e := &Entity{
		VIN:            vin,
		host:           host,
		LogicalAddress: logical,
		activated:      make(map[uint16]bool),
		ecus:           make(map[uint16]func([]byte) []byte),
	}
	host.OnReceive(func(at sim.Time, f *ethernet.Frame) {
		if f.EtherType == EtherTypeDoIP {
			e.handle(f)
		}
	})
	return e
}

// RegisterECU exposes an ECU at a logical address. The handler receives
// a UDS request and returns the UDS response. The request aliases the
// received frame and is valid only during the call; a handler that keeps
// it must copy it (uds.Server copies what it stores).
func (e *Entity) RegisterECU(logical uint16, handler func(req []byte) []byte) {
	e.ecus[logical] = handler
}

// send emits a DoIP message back to a MAC.
func (e *Entity) send(dst ethernet.MAC, payloadType uint16, payload []byte) {
	_ = e.host.Send(ethernet.Frame{
		Dst:       dst,
		EtherType: EtherTypeDoIP,
		Payload:   append(encodeHeader(payloadType, len(payload)), payload...),
	})
}

func (e *Entity) handle(f *ethernet.Frame) {
	pt, payload, err := parseHeader(f.Payload)
	if err != nil {
		return // silently dropped, as UDP-based DoIP does
	}
	switch pt {
	case TypeVehicleIDRequest:
		e.IdentRequests.Inc()
		resp := make([]byte, 0, 19)
		vin := make([]byte, 17)
		copy(vin, e.VIN)
		resp = append(resp, vin...)
		var la [2]byte
		binary.BigEndian.PutUint16(la[:], e.LogicalAddress)
		resp = append(resp, la[:]...)
		e.send(f.Src, TypeVehicleIDResponse, resp)

	case TypeRoutingActivation:
		// Payload: source address (2) + activation type (1) + optional key.
		if len(payload) < 3 {
			return
		}
		source := binary.BigEndian.Uint16(payload)
		key := payload[3:]
		code := byte(ActSuccess)
		if e.Auth != nil && !e.Auth(source, key) {
			code = ActDeniedAuthRequired
			e.ActDenied.Inc()
		} else {
			e.activated[source] = true
			e.Activations.Inc()
		}
		resp := make([]byte, 5)
		binary.BigEndian.PutUint16(resp, source)
		binary.BigEndian.PutUint16(resp[2:], e.LogicalAddress)
		resp[4] = code
		e.send(f.Src, TypeRoutingActResponse, resp)

	case TypeDiagMessage:
		// Payload: source (2) + target (2) + UDS request.
		if len(payload) < 4 {
			return
		}
		source := binary.BigEndian.Uint16(payload)
		target := binary.BigEndian.Uint16(payload[2:])
		req := payload[4:]
		nack := func(code byte) {
			e.DiagNacked.Inc()
			resp := make([]byte, 5)
			binary.BigEndian.PutUint16(resp, target)
			binary.BigEndian.PutUint16(resp[2:], source)
			resp[4] = code
			e.send(f.Src, TypeDiagNack, resp)
		}
		if !e.activated[source] {
			nack(NackRoutingInactive)
			return
		}
		handler, ok := e.ecus[target]
		if !ok {
			nack(NackUnknownTarget)
			return
		}
		e.DiagForwarded.Inc()
		// Positive ack, then the UDS response as a reverse diag message.
		ack := make([]byte, 5)
		binary.BigEndian.PutUint16(ack, target)
		binary.BigEndian.PutUint16(ack[2:], source)
		ack[4] = 0x00
		e.send(f.Src, TypeDiagAck, ack)
		udsResp := handler(req)
		if udsResp == nil {
			return
		}
		out := make([]byte, 4, 4+len(udsResp))
		binary.BigEndian.PutUint16(out, target)
		binary.BigEndian.PutUint16(out[2:], source)
		out = append(out, udsResp...)
		e.send(f.Src, TypeDiagMessage, out)
	}
}

// Tester is the client side: an Ethernet host acting as an external test
// tool (or attacker laptop on the OBD Ethernet port).
type Tester struct {
	host    *ethernet.Host
	Logical uint16

	entityMAC     ethernet.MAC
	entityLogical uint16
	haveEntity    bool

	onIdent []func(vin string, logical uint16)
	onAct   []func(code byte)
	onDiag  []func(resp []byte)
	onNack  []func(code byte)
}

// NewTester binds a tester to an Ethernet host.
func NewTester(host *ethernet.Host, logical uint16) *Tester {
	t := &Tester{host: host, Logical: logical}
	host.OnReceive(func(at sim.Time, f *ethernet.Frame) {
		if f.EtherType != EtherTypeDoIP {
			return
		}
		pt, payload, err := parseHeader(f.Payload)
		if err != nil {
			return
		}
		switch pt {
		case TypeVehicleIDResponse:
			if len(payload) >= 19 {
				t.entityMAC = f.Src
				t.entityLogical = binary.BigEndian.Uint16(payload[17:])
				t.haveEntity = true
				vin := trimVIN(payload[:17])
				for _, fn := range t.onIdent {
					fn(vin, t.entityLogical)
				}
			}
		case TypeRoutingActResponse:
			if len(payload) >= 5 {
				for _, fn := range t.onAct {
					fn(payload[4])
				}
			}
		case TypeDiagMessage:
			if len(payload) >= 4 {
				for _, fn := range t.onDiag {
					fn(append([]byte(nil), payload[4:]...))
				}
			}
		case TypeDiagNack:
			if len(payload) >= 5 {
				for _, fn := range t.onNack {
					fn(payload[4])
				}
			}
		}
	})
	return t
}

func trimVIN(b []byte) string {
	end := len(b)
	for end > 0 && b[end-1] == 0 {
		end--
	}
	return string(b[:end])
}

// OnIdent registers a vehicle-identification callback.
func (t *Tester) OnIdent(fn func(vin string, logical uint16)) { t.onIdent = append(t.onIdent, fn) }

// OnActivation registers a routing-activation-response callback.
func (t *Tester) OnActivation(fn func(code byte)) { t.onAct = append(t.onAct, fn) }

// OnDiagResponse registers a diagnostic-response callback.
func (t *Tester) OnDiagResponse(fn func(resp []byte)) { t.onDiag = append(t.onDiag, fn) }

// OnNack registers a NACK callback.
func (t *Tester) OnNack(fn func(code byte)) { t.onNack = append(t.onNack, fn) }

// Discover broadcasts a vehicle identification request.
func (t *Tester) Discover() error {
	return t.host.Send(ethernet.Frame{
		Dst:       ethernet.Broadcast,
		EtherType: EtherTypeDoIP,
		Payload:   encodeHeader(TypeVehicleIDRequest, 0),
	})
}

// ErrNoEntity is returned before discovery has found a DoIP entity.
var ErrNoEntity = errors.New("doip: no entity discovered yet")

// Activate requests routing activation, with an optional auth key.
func (t *Tester) Activate(key []byte) error {
	if !t.haveEntity {
		return ErrNoEntity
	}
	payload := make([]byte, 3, 3+len(key))
	binary.BigEndian.PutUint16(payload, t.Logical)
	payload[2] = 0x00 // default activation type
	payload = append(payload, key...)
	return t.host.Send(ethernet.Frame{
		Dst:       t.entityMAC,
		EtherType: EtherTypeDoIP,
		Payload:   append(encodeHeader(TypeRoutingActivation, len(payload)), payload...),
	})
}

// Diag sends a UDS request to a target ECU logical address.
func (t *Tester) Diag(target uint16, req []byte) error {
	if !t.haveEntity {
		return ErrNoEntity
	}
	payload := make([]byte, 4, 4+len(req))
	binary.BigEndian.PutUint16(payload, t.Logical)
	binary.BigEndian.PutUint16(payload[2:], target)
	payload = append(payload, req...)
	return t.host.Send(ethernet.Frame{
		Dst:       t.entityMAC,
		EtherType: EtherTypeDoIP,
		Payload:   append(encodeHeader(TypeDiagMessage, len(payload)), payload...),
	})
}

// String renders a NACK code.
func NackName(code byte) string {
	switch code {
	case NackInvalidSource:
		return "invalid source address"
	case NackUnknownTarget:
		return "unknown target address"
	case NackRoutingInactive:
		return "routing activation missing"
	default:
		return fmt.Sprintf("nack(%#x)", code)
	}
}
