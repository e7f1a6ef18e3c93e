// Package ota implements an over-the-air software update framework in the
// style the paper calls for ("facilities for in-field OTA updates to
// software, firmware, or even hardware configurations" whose update flow
// "itself must be upgradable"). The design is Uptane-flavoured: two
// independent repositories — a *director* that targets updates at a
// specific vehicle and an *image* repository that attests what images
// exist — must agree before an ECU installs anything. Signed metadata
// carries monotonic version counters (anti-rollback), expiry times,
// per-image hashes and hardware-compatibility identifiers.
//
// The threat experiment E10 drives this package through its attack
// matrix: forged metadata, replayed old versions, wrong-hardware images,
// a stolen single-repository key, tampered payloads and truncated
// bundles must all be rejected; only a fully consistent fresh bundle
// installs.
package ota

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"

	"autosec/internal/obs"
	"autosec/internal/sim"
)

// Target describes one installable image.
type Target struct {
	Name    string
	Version uint64
	// HWID names the ECU hardware the image is compatible with.
	HWID   string
	Length int
	Hash   [32]byte
}

// Metadata is a signed targets statement from one repository. Its
// fields are unexported and written only while Sign or ForgeMetadata
// builds it; both seal it before returning, so a *Metadata is immutable
// and a struct copy carries the same content, signature and digest.
type Metadata struct {
	repo    string // "director" or "image"
	version uint64 // metadata version counter (anti-rollback)
	expires sim.Time
	// vehicleID scopes director metadata to one vehicle ("" for the image
	// repository, whose statements are fleet-wide).
	vehicleID string
	targets   []Target
	sig       []byte

	// canon is the canonical rendering of the signed fields and sum the
	// SHA-256 of canon followed by sig, both fixed by seal: the bytes
	// every verification checks and the VerifyCache's content key.
	canon []byte
	sum   [sha256.Size]byte
}

// seal renders m's signed fields into canon, signs them with sign and
// records sum. Sign and ForgeMetadata call it on a Metadata they have
// just built, so no field changes after its digest is taken.
func (m *Metadata) seal(sign func(canon []byte) []byte) *Metadata {
	m.canon = m.canonical()
	m.sig = sign(m.canon)
	m.sum = sha256.Sum256(append(m.canon[:len(m.canon):len(m.canon)], m.sig...))
	return m
}

// canonical renders the signed portion deterministically. Every
// variable-length field (repo, vehicleID, target Name and HWID) is
// length-prefixed and the target list is count-prefixed, so two distinct
// metadata values can never share canonical bytes — the earlier
// NUL-terminated encoding let a vehicleID embedding a NUL byte absorb the
// first target's name. Targets render in name order regardless of slice
// order.
func (m *Metadata) canonical() []byte {
	var b []byte
	b = appendLenPrefixed(b, m.repo)
	b = binary.BigEndian.AppendUint64(b, m.version)
	b = binary.BigEndian.AppendUint64(b, uint64(m.expires))
	b = appendLenPrefixed(b, m.vehicleID)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.targets)))
	byName := slices.Clone(m.targets)
	slices.SortStableFunc(byName, func(x, y Target) int { return strings.Compare(x.Name, y.Name) })
	for i := range byName {
		t := &byName[i]
		b = appendLenPrefixed(b, t.Name)
		b = binary.BigEndian.AppendUint64(b, t.Version)
		b = appendLenPrefixed(b, t.HWID)
		b = binary.BigEndian.AppendUint64(b, uint64(t.Length))
		b = append(b, t.Hash[:]...)
	}
	return b
}

// appendLenPrefixed appends a 4-byte big-endian length then the bytes.
func appendLenPrefixed(b []byte, v string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...)
}

// Repository is a metadata signer (director or image repo).
type Repository struct {
	Name string
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey

	nextVersion uint64
}

// NewRepository creates a repository with a fresh signing key.
func NewRepository(name string) (*Repository, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return &Repository{Name: name, priv: priv, pub: pub, nextVersion: 1}, nil
}

// PublicKey returns the repository's verification key.
func (r *Repository) PublicKey() ed25519.PublicKey { return r.pub }

// StealKey returns the private key, modelling the side-channel key
// extraction of experiment E3/E10. It exists so attacks are explicit in
// scenario code; a production system would obviously not export this.
func (r *Repository) StealKey() ed25519.PrivateKey { return r.priv }

// Sign publishes signed metadata with the next version counter.
func (r *Repository) Sign(vehicleID string, targets []Target, expires sim.Time) *Metadata {
	m := ForgeMetadata(r.priv, r.Name, vehicleID, r.nextVersion, targets, expires)
	r.nextVersion++
	return m
}

// ForgeMetadata signs arbitrary metadata with a (presumably stolen) key —
// the attacker-side primitive. Like Sign it keeps its own copy of targets.
func ForgeMetadata(key ed25519.PrivateKey, repo, vehicleID string, version uint64, targets []Target, expires sim.Time) *Metadata {
	m := &Metadata{repo: repo, version: version, expires: expires, vehicleID: vehicleID, targets: append([]Target(nil), targets...)}
	return m.seal(func(canon []byte) []byte { return ed25519.Sign(key, canon) })
}

// HashPayload computes a target payload hash.
func HashPayload(p []byte) [32]byte { return sha256.Sum256(p) }

// MakeTarget builds a Target from an image payload.
func MakeTarget(name string, version uint64, hwid string, payload []byte) Target {
	return Target{Name: name, Version: version, HWID: hwid, Length: len(payload), Hash: HashPayload(payload)}
}

// Bundle is what a vehicle receives in one update campaign: both
// repositories' metadata plus the image payloads.
type Bundle struct {
	Director *Metadata
	Image    *Metadata
	Payloads map[string][]byte
}

// Verification errors — one per row of the E10 attack matrix, plus the
// campaign-mode freshness sentinel.
var (
	ErrBadSignature = errors.New("ota: metadata signature invalid")
	ErrRollback     = errors.New("ota: metadata or target version rollback")
	ErrExpiredMeta  = errors.New("ota: metadata expired")
	ErrWrongVehicle = errors.New("ota: director metadata for a different vehicle")
	ErrMixAndMatch  = errors.New("ota: director and image repositories disagree")
	ErrWrongHW      = errors.New("ota: image hardware ID does not match ECU")
	ErrHashMismatch = errors.New("ota: payload hash mismatch")
	ErrIncomplete   = errors.New("ota: bundle is missing payloads")
	// ErrNoUpdate is returned by ApplyCached when the bundle's metadata
	// is exactly the client's current metadata (both version counters
	// equal, both sealed digests equal) and still verifies: the vehicle
	// is up to date, nothing was installed and nothing was rejected. A
	// freeze attacker replaying a vehicle's own stale-but-signed metadata
	// hides behind this answer until the metadata expires — at which
	// point the reply becomes ErrExpiredMeta, which is the freeze
	// detection signal.
	ErrNoUpdate = errors.New("ota: metadata current, no update available")
	// ErrEquivocation is returned by ApplyCached when validly signed
	// metadata carries the client's current version counters but is not
	// the metadata the client installed at them: a repository signed two
	// statements at one version, which only a stolen key or a broken
	// repository does.
	ErrEquivocation = errors.New("ota: different metadata signed at the current version")
)

// pendingInstall is one planned target commit; Apply and ApplyCached
// stage the whole plan before touching any ECU (all-or-nothing).
type pendingInstall struct {
	ecu *ECUState
	t   Target
}

// ECUState is the client-side record for one ECU.
type ECUState struct {
	HWID             string
	InstalledName    string
	InstalledVersion uint64
}

// Client is the vehicle-side update verifier (the "primary" in Uptane
// terms).
type Client struct {
	VehicleID string

	// Group optionally names a campaign addressing group (for example a
	// model line); director metadata whose VehicleID equals the group is
	// accepted alongside metadata addressed to the vehicle itself. Group
	// addressing is what lets a fleet campaign sign one director
	// statement per model instead of one per vehicle, which in turn is
	// what makes verify-once-per-campaign memoization effective.
	Group string

	directorKey ed25519.PublicKey
	imageKey    ed25519.PublicKey

	lastDirectorVersion uint64
	lastImageVersion    uint64
	// directorSum and imageSum are the sealed digests of the installed
	// statements at those versions (zero before the first install and
	// after SetKeys).
	directorSum, imageSum [sha256.Size]byte

	// ecus holds one state per hardware ID, in registration order.
	ecus []ECUState

	Installed sim.Counter
	Rejected  sim.Counter
	// UpToDate counts ApplyCached calls that returned ErrNoUpdate.
	UpToDate sim.Counter

	// plan backs the install planning of Apply and ApplyCached.
	plan []pendingInstall

	// Observability (nil when off); see Instrument in obs.go.
	obsTr      *obs.Tracer
	obsSub     obs.Label
	obsVerify  obs.Label
	obsInstall obs.Label
	obsReject  obs.Label
}

// NewClient creates a client trusting the two repository keys.
func NewClient(vehicleID string, directorKey, imageKey ed25519.PublicKey) *Client {
	return &Client{VehicleID: vehicleID, directorKey: directorKey, imageKey: imageKey}
}

// SetKeys rotates the client onto a new trust epoch: both repository
// keys are replaced and the metadata version counters restart, exactly
// like a root-metadata rotation in Uptane — the new repositories begin
// counting from 1 again. Installed target versions are untouched, so
// anti-rollback of the images themselves survives the rotation.
func (c *Client) SetKeys(directorKey, imageKey ed25519.PublicKey) {
	c.directorKey = directorKey
	c.imageKey = imageKey
	c.lastDirectorVersion = 0
	c.lastImageVersion = 0
	c.directorSum, c.imageSum = [sha256.Size]byte{}, [sha256.Size]byte{}
}

// AddECU registers an ECU by hardware ID with its factory firmware
// version, replacing any ECU already registered under that ID. It may
// move the ECU states, so a pointer ECU returned earlier stays valid
// only until the next AddECU; register every ECU while constructing the
// client, before handing out its ECUs.
func (c *Client) AddECU(hwid string, installedVersion uint64) {
	if e, ok := c.ECU(hwid); ok {
		*e = ECUState{HWID: hwid, InstalledVersion: installedVersion}
		return
	}
	c.ecus = append(c.ecus, ECUState{HWID: hwid, InstalledVersion: installedVersion})
}

// ECU returns the state for a hardware ID. The pointer stays valid until
// the next AddECU.
func (c *Client) ECU(hwid string) (*ECUState, bool) {
	for i := range c.ecus {
		if c.ecus[i].HWID == hwid {
			return &c.ecus[i], true
		}
	}
	return nil, false
}

// verifyMeta checks one repository's signature, freshness and counters.
func (c *Client) verifyMeta(m *Metadata, key ed25519.PublicKey, lastVersion uint64, now sim.Time) error {
	if !ed25519.Verify(key, m.canon, m.sig) {
		return fmt.Errorf("%w: repo %s", ErrBadSignature, m.repo)
	}
	if err := checkFresh(m, now); err != nil {
		return err
	}
	if m.version <= lastVersion {
		return fmt.Errorf("%w: repo %s version %d <= %d", ErrRollback, m.repo, m.version, lastVersion)
	}
	return nil
}

// checkFresh enforces metadata expiry. "Expires at T" means invalid at
// T: the comparison is now >= Expires, so metadata presented at exactly
// its expiry instant is already rejected (an off-by-one here handed a
// freeze attacker one extra replay window at the boundary).
func checkFresh(m *Metadata, now sim.Time) error {
	if m.expires != 0 && now >= m.expires {
		return fmt.Errorf("%w: repo %s at %v (expired %v)", ErrExpiredMeta, m.repo, now, m.expires)
	}
	return nil
}

// Apply verifies a bundle at virtual time now and, if everything checks
// out, installs the targets into the matching ECUs. It is all-or-nothing:
// any failure leaves every ECU untouched.
func (c *Client) Apply(b *Bundle, now sim.Time) error {
	if c.obsTr != nil {
		c.obsTr.Instant(now, c.obsSub, c.obsVerify, 0, 0, 0)
	}
	if err := c.apply(b, now); err != nil {
		c.Rejected.Inc()
		if c.obsTr != nil {
			c.obsTr.Instant(now, c.obsSub, c.obsReject, c.obsTr.Label(errClass(err)), 0, 0)
		}
		return err
	}
	c.Installed.Inc()
	if c.obsTr != nil {
		targets := 0
		if b.Director != nil {
			targets = len(b.Director.targets)
		}
		c.obsTr.Instant(now, c.obsSub, c.obsInstall, c.obsTr.Label(c.VehicleID), int64(targets), 0)
	}
	return nil
}

func (c *Client) apply(b *Bundle, now sim.Time) error {
	if b.Director == nil || b.Image == nil {
		return ErrIncomplete
	}
	if err := c.verifyMeta(b.Director, c.directorKey, c.lastDirectorVersion, now); err != nil {
		return err
	}
	if err := c.verifyMeta(b.Image, c.imageKey, c.lastImageVersion, now); err != nil {
		return err
	}
	if b.Director.vehicleID != c.VehicleID {
		return fmt.Errorf("%w: %q", ErrWrongVehicle, b.Director.vehicleID)
	}

	// Every director target must be attested, byte for byte, by the image
	// repository: this is the two-party control that makes a single stolen
	// key insufficient.
	a := buildAttestation(b)
	if a.err != nil {
		return a.err
	}
	if err := c.stage(a.plan, false); err != nil {
		return err
	}
	c.commit(b)
	return nil
}

// stage plans the install of attested targets into c.plan, checking each
// against its ECU. A target for hardware the vehicle lacks is rejected,
// and so is one older than its ECU's firmware. A target at the installed
// version is rejected too, unless skew is set: then it is skipped, so a
// vehicle that joins a campaign already at some of its targets
// converges.
func (c *Client) stage(targets []Target, skew bool) error {
	c.plan = c.plan[:0]
	for i := range targets {
		t := &targets[i]
		ecu, ok := c.ECU(t.HWID)
		if !ok {
			return fmt.Errorf("%w: %q", ErrWrongHW, t.HWID)
		}
		switch {
		case skew && t.Version < ecu.InstalledVersion:
			return fmt.Errorf("%w: target %q version %d < installed %d",
				ErrRollback, t.Name, t.Version, ecu.InstalledVersion)
		case skew && t.Version == ecu.InstalledVersion:
			continue // already at the campaign target
		case !skew && t.Version <= ecu.InstalledVersion:
			return fmt.Errorf("%w: target %q version %d <= installed %d",
				ErrRollback, t.Name, t.Version, ecu.InstalledVersion)
		}
		c.plan = append(c.plan, pendingInstall{ecu: ecu, t: *t})
	}
	return nil
}

// commit installs the staged plan and makes b's statements the client's
// current metadata.
func (c *Client) commit(b *Bundle) {
	for _, p := range c.plan {
		p.ecu.InstalledName = p.t.Name
		p.ecu.InstalledVersion = p.t.Version
	}
	c.lastDirectorVersion, c.directorSum = b.Director.version, b.Director.sum
	c.lastImageVersion, c.imageSum = b.Image.version, b.Image.sum
}
