package ota

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"maps"
	"testing"

	"autosec/internal/sim"
)

// installHW are the hardware IDs of the fuzzed vehicle's two ECUs, and
// installNames the target names published for them.
var (
	installHW    = [2]string{"brake-mcu-r2", "adas-soc-r1"}
	installNames = [2]string{"brake-fw", "adas-fw"}
)

// installFuzz is the state of one FuzzInstallInvariants input: the
// current trust epoch's repositories, every bundle published so far,
// the clock, two twin clients, and the statements they have accepted.
// twins[0] verifies through one warm cache shared by every call;
// twins[1] gets a fresh cache for every call, so it verifies everything
// cold.
type installFuzz struct {
	epoch           byte
	director, image *Repository
	published       []*Bundle
	next            uint64 // next fresh target version
	now             sim.Time
	warm            *VerifyCache
	twins           [2]*Client
	// accepted holds the canonical bytes of every statement a twin has
	// installed or answered ErrNoUpdate to, by trust epoch, repository
	// and version.
	accepted map[statementID]string
}

// statementID names one repository's version counter in one trust epoch.
type statementID struct {
	epoch   byte
	repo    string
	version uint64
}

// seededRepository is a repository with a key from seededKey.
func seededRepository(name string, seed byte) *Repository {
	priv := seededKey(seed)
	return &Repository{Name: name, priv: priv, pub: priv.Public().(ed25519.PublicKey), nextVersion: 1}
}

func newInstallFuzz() *installFuzz {
	f := &installFuzz{next: 2, now: sim.Minute, warm: NewVerifyCache(), accepted: make(map[statementID]string)}
	f.rotate()
	for i := range f.twins {
		c := NewClient("VIN-1", f.director.PublicKey(), f.image.PublicKey())
		c.Group = "model-S"
		for _, hw := range installHW {
			c.AddECU(hw, 1)
		}
		f.twins[i] = c
	}
	return f
}

// rotate starts the next trust epoch: fresh repositories, and both twins
// trusting their keys. The first published bundle of the epoch is signed
// but not yet presented, so forgeries always have a genuine statement to
// pair with.
func (f *installFuzz) rotate() {
	f.epoch++
	f.director = seededRepository("director", 2*f.epoch+1)
	f.image = seededRepository("image", 2*f.epoch+2)
	for _, c := range f.twins {
		if c != nil {
			c.SetKeys(f.director.PublicKey(), f.image.PublicKey())
		}
	}
	f.publish(f.genuine(0, f.now+sim.Hour))
}

// targets returns the targets arg selects (brake, adas or both), at
// version v on hardware hw (the ECU's own when hw is "").
func (f *installFuzz) targets(arg byte, v uint64, hw string) ([]Target, map[string][]byte) {
	var ts []Target
	payloads := make(map[string][]byte)
	for i, name := range installNames {
		if sel := arg >> 2 & 3; sel != 2 && sel != 3 && int(sel) != i {
			continue
		}
		h := hw
		if h == "" {
			h = installHW[i]
		}
		p := []byte(fmt.Sprintf("%s v%d", name, v))
		ts = append(ts, MakeTarget(name, v, h, p))
		payloads[name] = p
	}
	return ts, payloads
}

// addressee is the director's addressing group or the vehicle itself.
func addressee(arg byte) string {
	if arg&0x10 != 0 {
		return "VIN-1"
	}
	return "model-S"
}

// genuine signs the next version of the targets arg selects with both
// current repositories.
func (f *installFuzz) genuine(arg byte, expires sim.Time) *Bundle {
	ts, payloads := f.targets(arg, f.next, "")
	f.next++
	return &Bundle{
		Director: f.director.Sign(addressee(arg), ts, expires),
		Image:    f.image.Sign("", ts, expires),
		Payloads: payloads,
	}
}

func (f *installFuzz) publish(b *Bundle) *Bundle {
	f.published = append(f.published, b)
	return b
}

func (f *installFuzz) latest() *Bundle { return f.published[len(f.published)-1] }

// forge pairs a fresh genuine release, published beside it, with
// statements signed by the stolen keys: the director key with
// directorStolen, the image key with imageStolen. A forged statement
// lists fresh (or, with arg&2, downgrade) targets at the genuine
// release's metadata version plus arg>>5; the bundle carries their
// payloads.
func (f *installFuzz) forge(arg byte, directorStolen, imageStolen bool) *Bundle {
	b := *f.publish(f.genuine(arg, f.now+sim.Hour))
	v := uint64(1)
	if arg&2 == 0 {
		v = f.next
		f.next++
	}
	ts, payloads := f.targets(arg, v, "")
	version := b.Director.version + uint64(arg>>5)
	b.Payloads = payloads
	if directorStolen {
		b.Director = ForgeMetadata(f.director.StealKey(), "director", addressee(arg), version, ts, f.now+sim.Hour)
	}
	if imageStolen {
		b.Image = ForgeMetadata(f.image.StealKey(), "image", "", version, ts, f.now+sim.Hour)
	}
	return &b
}

// tamper returns a published bundle (arg>>4 selects which) with one
// field of one statement changed under its original signature (kind
// arg&7, statement arg&8), or with one payload byte changed (kind 6).
func (f *installFuzz) tamper(arg byte) *Bundle {
	b := *f.published[int(arg>>4)%len(f.published)]
	m := &b.Director
	if arg&8 != 0 {
		m = &b.Image
	}
	switch kind := arg & 7; kind {
	case 6:
		name := b.Director.targets[0].Name
		b.Payloads = maps.Clone(b.Payloads)
		b.Payloads[name] = append([]byte{b.Payloads[name][0] ^ 0x01}, b.Payloads[name][1:]...)
	default:
		*m = variant(*m, func(v *Metadata) {
			switch kind {
			case 0:
				v.version++
			case 1:
				v.expires += sim.Hour
			case 2:
				v.targets[0].Version++
			case 3:
				v.targets[0].Hash[0] ^= 0x01
			case 4:
				v.vehicleID = "VIN-2"
			case 5:
				v.sig[0] ^= 0x01
			case 7:
				v.targets[0].HWID = "steering-mcu-r1"
			}
		})
	}
	return &b
}

// bundle decodes one step's bundle: op%8 picks a genuine next version,
// a replay, an already-expired genuine bundle, a single-key or two-key
// forgery, a tampered bundle, a genuine bundle for hardware the vehicle
// lacks, or a key rotation followed by a replay of the last bundle.
func (f *installFuzz) bundle(op, arg byte) *Bundle {
	switch op % 8 {
	case 0:
		return f.publish(f.genuine(arg, f.now+sim.Duration(1+arg%4)*sim.Hour/2))
	case 1:
		return f.published[int(arg)%len(f.published)]
	case 2:
		return f.publish(f.genuine(arg, f.now-sim.Duration(arg%4)*sim.Second))
	case 3:
		return f.forge(arg, arg&1 == 0, arg&1 != 0)
	case 4:
		return f.forge(arg, true, true)
	case 5:
		return f.tamper(arg)
	case 6:
		ts, payloads := f.targets(arg, f.next, "steering-mcu-r1")
		f.next++
		return f.publish(&Bundle{
			Director: f.director.Sign(addressee(arg), ts, f.now+sim.Hour),
			Image:    f.image.Sign("", ts, f.now+sim.Hour),
			Payloads: payloads,
		})
	default:
		last := f.latest()
		f.rotate()
		return last
	}
}

// installOutcome is the errors.Is class of an ApplyCached result.
func installOutcome(err error) string {
	switch {
	case err == nil:
		return "installed"
	case errors.Is(err, ErrNoUpdate):
		return "no-update"
	default:
		return errClass(err)
	}
}

// ecuVersions returns the installed name and version of each ECU.
func ecuVersions(c *Client) [2]ECUState {
	var s [2]ECUState
	for i, hw := range installHW {
		e, _ := c.ECU(hw)
		s[i] = *e
	}
	return s
}

// FuzzInstallInvariants drives two twin clients through the same
// sequence of bundles and clock values, one on a warm shared cache and
// one verifying everything cold. The input is a sequence of 3-byte
// steps (op, arg, minutes): the clock advances by minutes, then both
// twins are offered the bundle installFuzz.bundle decodes. After every
// step:
//
//   - both twins return the same errors.Is class and hold the same ECU
//     versions, so memoization changes no outcome;
//   - a call that does not install changes no ECU;
//   - no installed version ever decreases;
//   - nothing installs at or after either statement's expiry, nor
//     unless both statements verify under the client's current keys
//     over canonical bytes rendered afresh from their fields;
//   - two different statements of one repository are never accepted
//     (installed, or answered ErrNoUpdate) at one version of one trust
//     epoch.
func FuzzInstallInvariants(f *testing.F) {
	f.Fuzz(func(t *testing.T, steps []byte) {
		if len(steps) > 3*32 {
			steps = steps[:3*32]
		}
		s := newInstallFuzz()
		for i := 0; i+3 <= len(steps); i += 3 {
			op, arg := steps[i], steps[i+1]
			s.now += sim.Duration(steps[i+2]) * sim.Minute
			b := s.bundle(op, arg)
			before := ecuVersions(s.twins[0])
			warm := s.twins[0].ApplyCached(b, s.now, s.warm)
			cold := s.twins[1].ApplyCached(b, s.now, NewVerifyCache())
			after := ecuVersions(s.twins[0])
			step := fmt.Sprintf("step %d (op %d, arg %#x, now %v)", i/3, op%8, arg, s.now)
			if installOutcome(warm) != installOutcome(cold) {
				t.Fatalf("%s: warm cache %v, cold %v", step, warm, cold)
			}
			if warm == nil || errors.Is(warm, ErrNoUpdate) {
				for _, m := range []*Metadata{b.Director, b.Image} {
					id, canon := statementID{s.epoch, m.repo, m.version}, string(m.canonical())
					if prev, ok := s.accepted[id]; ok && prev != canon {
						t.Fatalf("%s: accepted (%v) a second %s statement at version %d", step, warm, m.repo, m.version)
					}
					s.accepted[id] = canon
				}
			}
			if twin := ecuVersions(s.twins[1]); twin != after {
				t.Fatalf("%s: warm twin holds %+v, cold twin %+v", step, after, twin)
			}
			for k := range after {
				if after[k].InstalledVersion < before[k].InstalledVersion {
					t.Fatalf("%s: %s went from version %d to %d", step, installHW[k], before[k].InstalledVersion, after[k].InstalledVersion)
				}
			}
			if warm != nil {
				if after != before {
					t.Fatalf("%s: %v changed the ECUs from %+v to %+v", step, warm, before, after)
				}
				continue
			}
			c := s.twins[0]
			for _, st := range []struct {
				m   *Metadata
				key ed25519.PublicKey
			}{{b.Director, c.directorKey}, {b.Image, c.imageKey}} {
				if st.m.expires != 0 && s.now >= st.m.expires {
					t.Fatalf("%s: installed %s metadata that expired at %v", step, st.m.repo, st.m.expires)
				}
				if !ed25519.Verify(st.key, st.m.canonical(), st.m.sig) {
					t.Fatalf("%s: installed %s metadata that does not verify under the current key", step, st.m.repo)
				}
			}
		}
	})
}
