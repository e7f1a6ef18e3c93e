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

// Metadata is a signed targets statement from one repository.
type Metadata struct {
	Repo    string // "director" or "image"
	Version uint64 // metadata version counter (anti-rollback)
	Expires sim.Time
	// VehicleID scopes director metadata to one vehicle ("" for the image
	// repository, whose statements are fleet-wide).
	VehicleID string
	Targets   []Target

	Sig []byte
}

// canonicalScratch holds the reusable working state of canonicalInto so
// a cached verify renders canonical bytes without allocating: buf is the
// output buffer, order the target-sort index slice. The zero value is
// ready to use; both slices grow on first use and are reused after.
type canonicalScratch struct {
	buf   []byte
	order []int
}

// canonical renders the signed portion deterministically (allocating
// convenience wrapper around canonicalInto; signing-side code paths use
// it, verifiers reuse a scratch).
func (m *Metadata) canonical() []byte {
	var s canonicalScratch
	return m.canonicalInto(&s)
}

// canonicalInto renders the signed portion into s.buf and returns it.
// Every variable-length field (Repo, VehicleID, target Name and HWID) is
// length-prefixed and the target list is count-prefixed, so two distinct
// metadata values can never share canonical bytes — the earlier
// NUL-terminated encoding let a VehicleID embedding a NUL byte absorb the
// first target's name. Targets render in name order regardless of slice
// order; the returned slice aliases s.buf and is valid until the next
// call with the same scratch.
func (m *Metadata) canonicalInto(s *canonicalScratch) []byte {
	b := s.buf[:0]
	b = appendLenPrefixed(b, m.Repo)
	b = binary.BigEndian.AppendUint64(b, m.Version)
	b = binary.BigEndian.AppendUint64(b, uint64(m.Expires))
	b = appendLenPrefixed(b, m.VehicleID)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Targets)))
	// Name-order indices via a reused insertion sort: target lists are
	// short (one per model in campaign bundles), and sort.Slice on a
	// fresh copy would allocate on every verify.
	order := s.order[:0]
	for i := range m.Targets {
		j := len(order)
		order = append(order, i)
		for j > 0 && m.Targets[order[j]].Name < m.Targets[order[j-1]].Name {
			order[j], order[j-1] = order[j-1], order[j]
			j--
		}
	}
	for _, i := range order {
		t := &m.Targets[i]
		b = appendLenPrefixed(b, t.Name)
		b = binary.BigEndian.AppendUint64(b, t.Version)
		b = appendLenPrefixed(b, t.HWID)
		b = binary.BigEndian.AppendUint64(b, uint64(t.Length))
		b = append(b, t.Hash[:]...)
	}
	s.buf, s.order = b, order
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
	m := &Metadata{
		Repo:      r.Name,
		Version:   r.nextVersion,
		Expires:   expires,
		VehicleID: vehicleID,
		Targets:   append([]Target(nil), targets...),
	}
	r.nextVersion++
	m.Sig = ed25519.Sign(r.priv, m.canonical())
	return m
}

// ForgeMetadata signs arbitrary metadata with a (presumably stolen) key —
// the attacker-side primitive.
func ForgeMetadata(key ed25519.PrivateKey, repo, vehicleID string, version uint64, targets []Target, expires sim.Time) *Metadata {
	m := &Metadata{Repo: repo, Version: version, Expires: expires, VehicleID: vehicleID, Targets: targets}
	m.Sig = ed25519.Sign(key, m.canonical())
	return m
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
	// equal) and still verifies: the vehicle is up to date, nothing was
	// installed and nothing was rejected. A freeze attacker replaying a
	// vehicle's own stale-but-signed metadata hides behind this answer
	// until the metadata expires — at which point the reply becomes
	// ErrExpiredMeta, which is the freeze detection signal.
	ErrNoUpdate = errors.New("ota: metadata current, no update available")
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

	ecus map[string]*ECUState // by HWID

	Installed sim.Counter
	Rejected  sim.Counter
	// UpToDate counts ApplyCached calls that returned ErrNoUpdate.
	UpToDate sim.Counter

	// scratch backs the allocation-free canonical rendering of a content
	// lookup and the install planning on the cached verify path. A client
	// whose lookups all hit identity memos never grows it.
	scratch canonicalScratch
	plan    []pendingInstall

	// Observability (nil when off); see Instrument in obs.go.
	obsTr      *obs.Tracer
	obsSub     obs.Label
	obsVerify  obs.Label
	obsInstall obs.Label
	obsReject  obs.Label
}

// NewClient creates a client trusting the two repository keys.
func NewClient(vehicleID string, directorKey, imageKey ed25519.PublicKey) *Client {
	return &Client{
		VehicleID:   vehicleID,
		directorKey: directorKey,
		imageKey:    imageKey,
		ecus:        make(map[string]*ECUState),
	}
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
}

// AddECU registers an ECU by hardware ID with its factory firmware version.
func (c *Client) AddECU(hwid string, installedVersion uint64) {
	c.ecus[hwid] = &ECUState{HWID: hwid, InstalledVersion: installedVersion}
}

// ECU returns the state for a hardware ID.
func (c *Client) ECU(hwid string) (*ECUState, bool) {
	e, ok := c.ecus[hwid]
	return e, ok
}

// verifyMeta checks one repository's signature, freshness and counters.
func (c *Client) verifyMeta(m *Metadata, key ed25519.PublicKey, lastVersion uint64, now sim.Time) error {
	if !ed25519.Verify(key, m.canonical(), m.Sig) {
		return fmt.Errorf("%w: repo %s", ErrBadSignature, m.Repo)
	}
	if err := checkFresh(m, now); err != nil {
		return err
	}
	if m.Version <= lastVersion {
		return fmt.Errorf("%w: repo %s version %d <= %d", ErrRollback, m.Repo, m.Version, lastVersion)
	}
	return nil
}

// checkFresh enforces metadata expiry. "Expires at T" means invalid at
// T: the comparison is now >= Expires, so metadata presented at exactly
// its expiry instant is already rejected (an off-by-one here handed a
// freeze attacker one extra replay window at the boundary).
func checkFresh(m *Metadata, now sim.Time) error {
	if m.Expires != 0 && now >= m.Expires {
		return fmt.Errorf("%w: repo %s at %v (expired %v)", ErrExpiredMeta, m.Repo, now, m.Expires)
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
			targets = len(b.Director.Targets)
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
	if b.Director.VehicleID != c.VehicleID {
		return fmt.Errorf("%w: %q", ErrWrongVehicle, b.Director.VehicleID)
	}

	// Every director target must be attested, byte for byte, by the image
	// repository: this is the two-party control that makes a single stolen
	// key insufficient.
	imageByName := make(map[string]Target, len(b.Image.Targets))
	for _, t := range b.Image.Targets {
		imageByName[t.Name] = t
	}
	var plan []pendingInstall
	for _, t := range b.Director.Targets {
		it, ok := imageByName[t.Name]
		if !ok || it != t {
			return fmt.Errorf("%w: target %q", ErrMixAndMatch, t.Name)
		}
		ecu, ok := c.ecus[t.HWID]
		if !ok {
			return fmt.Errorf("%w: %q", ErrWrongHW, t.HWID)
		}
		if t.Version <= ecu.InstalledVersion {
			return fmt.Errorf("%w: target %q version %d <= installed %d",
				ErrRollback, t.Name, t.Version, ecu.InstalledVersion)
		}
		payload, ok := b.Payloads[t.Name]
		if !ok {
			return fmt.Errorf("%w: payload %q", ErrIncomplete, t.Name)
		}
		if len(payload) != t.Length || HashPayload(payload) != t.Hash {
			return fmt.Errorf("%w: target %q", ErrHashMismatch, t.Name)
		}
		plan = append(plan, pendingInstall{ecu: ecu, t: t})
	}

	// Commit.
	for _, p := range plan {
		p.ecu.InstalledName = p.t.Name
		p.ecu.InstalledVersion = p.t.Version
	}
	c.lastDirectorVersion = b.Director.Version
	c.lastImageVersion = b.Image.Version
	return nil
}
