package core

import (
	"autosec/internal/doip"
	"autosec/internal/ethernet"
	"autosec/internal/sim"
	"autosec/internal/uds"
)

// The next-generation backbone: an automotive Ethernet switch carrying
// the diagnostics VLAN (DoIP) separately from infotainment traffic — the
// "stricter separation" the paper attributes to automotive Ethernet.

// Backbone VLANs used by the standard build.
const (
	VLANDiagnostics uint16 = 100
	VLANIVI         uint16 = 200
)

// Backbone is the vehicle's Ethernet segment with its DoIP edge node.
type Backbone struct {
	Switch *ethernet.Switch
	// Entity is the DoIP edge exposing UDS ECUs to the diagnostics VLAN.
	Entity *doip.Entity
	// Server is the UDS server behind the DoIP entity's ECU address.
	Server *uds.Server
	// ECUAddress is the UDS server's DoIP logical address.
	ECUAddress uint16

	vehicle *Vehicle
}

// EnableBackbone adds an Ethernet switch with a DoIP entity to the
// vehicle. activationAuth, when non-nil, gates DoIP routing activation
// (nil = open, the legacy posture).
func (v *Vehicle) EnableBackbone(alg uds.SeedKeyAlgorithm, activationAuth func(source uint16, key []byte) bool) *Backbone {
	sw := ethernet.NewSwitch(v.Kernel, v.VIN+"-backbone", 5*sim.Microsecond)
	edgeHost := ethernet.NewHost("doip-edge", ethernet.LocalMAC(0x0D01))
	sw.Connect(edgeHost, VLANDiagnostics)

	entity := doip.NewEntity(edgeHost, v.VIN, 0x0010)
	entity.Auth = activationAuth

	b := &Backbone{
		Switch:     sw,
		Entity:     entity,
		ECUAddress: 0x0021,
		vehicle:    v,
	}

	// The UDS server rides the DoIP transport: requests arrive through
	// the entity's handler, responses return through the captured sender.
	var pending []byte
	srv := uds.NewRawServer(v.Kernel, func(resp []byte) { pending = resp }, uds.ServerConfig{
		Algorithm: alg,
		Rand:      v.Kernel.Stream("doip-uds." + v.VIN),
	})
	srv.SetData(uds.DIDVIN, []byte(v.VIN), 0, 0)
	srv.SetData(uds.DIDSWVersion, []byte{1, 0, 0}, 0, 0)
	entity.RegisterECU(b.ECUAddress, func(req []byte) []byte {
		pending = nil
		srv.Handle(v.Kernel.Now(), req)
		return pending
	})
	b.Server = srv

	_ = v.Arch.Install(SecureNetworks, Implementation{Name: "ethernet-backbone", Version: 1, Component: sw})
	_ = v.Arch.Install(SecureNetworks, Implementation{Name: "doip-edge", Version: 1, Component: entity})
	return b
}

// NewDiagTester attaches an external test tool to the diagnostics VLAN.
func (b *Backbone) NewDiagTester(name string, mac uint32, logical uint16) *doip.Tester {
	h := ethernet.NewHost(name, ethernet.LocalMAC(mac))
	b.Switch.Connect(h, VLANDiagnostics)
	return doip.NewTester(h, logical)
}

// NewOffVLANAttacker attaches a host to the IVI VLAN — the attacker who
// owns the infotainment segment but must not reach diagnostics.
func (b *Backbone) NewOffVLANAttacker(name string, mac uint32, logical uint16) *doip.Tester {
	h := ethernet.NewHost(name, ethernet.LocalMAC(mac))
	b.Switch.Connect(h, VLANIVI)
	return doip.NewTester(h, logical)
}
