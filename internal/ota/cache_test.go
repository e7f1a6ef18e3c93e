package ota

import (
	"crypto/ed25519"
	"errors"
	"sync"
	"testing"
	"unsafe"

	"autosec/internal/obs"
	"autosec/internal/sim"
)

// campaignFixture wires a director+image pair and a group-addressed
// bundle the way the campaign backend does: one director statement per
// model line, shared by every vehicle of the model.
type campaignFixture struct {
	director *Repository
	image    *Repository
	bundle   *Bundle
	payload  []byte
	target   Target
}

func newCampaignFixture(t *testing.T, expires sim.Time) *campaignFixture {
	t.Helper()
	d, err := NewRepository("director")
	if err != nil {
		t.Fatal(err)
	}
	im, err := NewRepository("image")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("brake firmware v2 image bytes ........")
	target := MakeTarget("brake-fw", 2, "brake-mcu-r2", payload)
	return &campaignFixture{
		director: d,
		image:    im,
		payload:  payload,
		target:   target,
		bundle: &Bundle{
			Director: d.Sign("model-S", []Target{target}, expires),
			Image:    im.Sign("", []Target{target}, expires),
			Payloads: map[string][]byte{"brake-fw": payload},
		},
	}
}

func (f *campaignFixture) newVehicle(t *testing.T, vin string, installed uint64) *Client {
	t.Helper()
	c := NewClient(vin, f.director.PublicKey(), f.image.PublicKey())
	c.Group = "model-S"
	c.AddECU("brake-mcu-r2", installed)
	return c
}

func TestApplyCachedMemoizesAcrossFleet(t *testing.T) {
	f := newCampaignFixture(t, sim.Hour)
	vc := NewVerifyCache()
	const fleet = 50
	for i := 0; i < fleet; i++ {
		c := f.newVehicle(t, "VIN", 1)
		if err := c.ApplyCached(f.bundle, sim.Minute, vc); err != nil {
			t.Fatalf("vehicle %d: %v", i, err)
		}
		ecu, _ := c.ECU("brake-mcu-r2")
		if ecu.InstalledVersion != 2 {
			t.Fatalf("vehicle %d at version %d", i, ecu.InstalledVersion)
		}
	}
	st := vc.Stats()
	// 50 vehicles x 2 repos of lookups, but only one cold verification
	// per repository and one attestation build for the whole fleet.
	if st.SigLookups != 2*fleet || st.SigVerifies != 2 {
		t.Fatalf("sig stats: %+v", st)
	}
	if st.AttestLookups != fleet || st.AttestBuilds != 1 {
		t.Fatalf("attest stats: %+v", st)
	}
}

func TestApplyCachedNoUpdate(t *testing.T) {
	f := newCampaignFixture(t, sim.Hour)
	vc := NewVerifyCache()
	c := f.newVehicle(t, "VIN-1", 1)
	if err := c.ApplyCached(f.bundle, sim.Minute, vc); err != nil {
		t.Fatal(err)
	}
	// The steady-state campaign check-in: same bundle again is "you are
	// current", not a rollback rejection.
	if err := c.ApplyCached(f.bundle, 2*sim.Minute, vc); !errors.Is(err, ErrNoUpdate) {
		t.Fatalf("re-poll: %v", err)
	}
	if c.Installed.Value != 1 || c.Rejected.Value != 0 || c.UpToDate.Value != 1 {
		t.Fatalf("counters installed=%d rejected=%d uptodate=%d",
			c.Installed.Value, c.Rejected.Value, c.UpToDate.Value)
	}
}

func TestApplyCachedFreezeTurnsIntoExpiry(t *testing.T) {
	// A freeze attacker replays the vehicle's own current metadata: the
	// reply is ErrNoUpdate (silent) until the metadata expires, at which
	// point the same replay surfaces as ErrExpiredMeta — the detection
	// signal.
	f := newCampaignFixture(t, sim.Hour)
	vc := NewVerifyCache()
	c := f.newVehicle(t, "VIN-1", 1)
	if err := c.ApplyCached(f.bundle, sim.Minute, vc); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyCached(f.bundle, 2*sim.Minute, vc); !errors.Is(err, ErrNoUpdate) {
		t.Fatalf("inside freshness window: %v", err)
	}
	if err := c.ApplyCached(f.bundle, sim.Hour, vc); !errors.Is(err, ErrExpiredMeta) {
		t.Fatalf("at expiry: %v", err)
	}
}

func TestApplyCachedVersionSkew(t *testing.T) {
	// A vehicle joining mid-campaign already at the target version on one
	// ECU and behind on another converges instead of erroring.
	f := newCampaignFixture(t, sim.Hour)
	adasPayload := []byte("adas model weights v2")
	adas := MakeTarget("adas-fw", 2, "adas-soc-r1", adasPayload)
	b := &Bundle{
		Director: f.director.Sign("model-S", []Target{f.target, adas}, sim.Hour),
		Image:    f.image.Sign("", []Target{f.target, adas}, sim.Hour),
		Payloads: map[string][]byte{"brake-fw": f.payload, "adas-fw": adasPayload},
	}
	vc := NewVerifyCache()
	c := f.newVehicle(t, "VIN-skew", 2) // brake ECU already at the campaign target
	c.AddECU("adas-soc-r1", 1)
	if err := c.ApplyCached(b, sim.Minute, vc); err != nil {
		t.Fatalf("skewed vehicle should converge: %v", err)
	}
	adasECU, _ := c.ECU("adas-soc-r1")
	if adasECU.InstalledVersion != 2 {
		t.Fatalf("adas not converged: %d", adasECU.InstalledVersion)
	}
	// Strictly older targets are still a rollback even in campaign mode.
	c2 := f.newVehicle(t, "VIN-ahead", 3)
	c2.AddECU("adas-soc-r1", 1)
	if err := c2.ApplyCached(b, sim.Minute, vc); !errors.Is(err, ErrRollback) {
		t.Fatalf("downgrade of an ahead vehicle: %v", err)
	}
}

func TestApplyCachedGroupScoping(t *testing.T) {
	f := newCampaignFixture(t, sim.Hour)
	vc := NewVerifyCache()
	// Wrong group: the bundle is addressed to model-S.
	c := NewClient("VIN-x", f.director.PublicKey(), f.image.PublicKey())
	c.Group = "model-3"
	c.AddECU("brake-mcu-r2", 1)
	if err := c.ApplyCached(f.bundle, sim.Minute, vc); !errors.Is(err, ErrWrongVehicle) {
		t.Fatalf("cross-group bundle: %v", err)
	}
	// No group set: group-addressed metadata is also rejected.
	c2 := NewClient("VIN-y", f.director.PublicKey(), f.image.PublicKey())
	c2.AddECU("brake-mcu-r2", 1)
	if err := c2.ApplyCached(f.bundle, sim.Minute, vc); !errors.Is(err, ErrWrongVehicle) {
		t.Fatalf("groupless client: %v", err)
	}
	// Directly-addressed metadata still works alongside group addressing.
	direct := &Bundle{
		Director: f.director.Sign("VIN-z", []Target{f.target}, sim.Hour),
		Image:    f.image.Sign("", []Target{f.target}, sim.Hour),
		Payloads: map[string][]byte{"brake-fw": f.payload},
	}
	c3 := f.newVehicle(t, "VIN-z", 1)
	if err := c3.ApplyCached(direct, sim.Minute, vc); err != nil {
		t.Fatalf("directly addressed: %v", err)
	}
}

func TestApplyCachedKeyRotationInvalidatesEpoch(t *testing.T) {
	// A cache entry proven under one trust epoch must never satisfy a
	// lookup after rotation: the SigKey embeds the key fingerprint.
	f := newCampaignFixture(t, sim.Hour)
	vc := NewVerifyCache()
	c := f.newVehicle(t, "VIN-1", 1)
	if err := c.ApplyCached(f.bundle, sim.Minute, vc); err != nil {
		t.Fatal(err)
	}
	preRotation := vc.Stats().SigVerifies

	newDirector, err := NewRepository("director")
	if err != nil {
		t.Fatal(err)
	}
	newImage, err := NewRepository("image")
	if err != nil {
		t.Fatal(err)
	}
	c.SetKeys(newDirector.PublicKey(), newImage.PublicKey())

	// The old-epoch bundle re-verifies cold under the new keys and fails.
	if err := c.ApplyCached(f.bundle, 2*sim.Minute, vc); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("stale-epoch bundle after rotation: %v", err)
	}
	if vc.Stats().SigVerifies == preRotation {
		t.Fatal("rotation reused a stale-epoch cache entry")
	}

	// New-epoch metadata (counters restarted at 1) verifies and installs.
	p3 := []byte("brake firmware v3")
	t3 := MakeTarget("brake-fw", 3, "brake-mcu-r2", p3)
	nb := &Bundle{
		Director: newDirector.Sign("model-S", []Target{t3}, sim.Hour),
		Image:    newImage.Sign("", []Target{t3}, sim.Hour),
		Payloads: map[string][]byte{"brake-fw": p3},
	}
	if err := c.ApplyCached(nb, 3*sim.Minute, vc); err != nil {
		t.Fatalf("new-epoch bundle: %v", err)
	}
	ecu, _ := c.ECU("brake-mcu-r2")
	if ecu.InstalledVersion != 3 {
		t.Fatalf("post-rotation install: version %d", ecu.InstalledVersion)
	}
}

// TestApplyCachedRejectsEquivocation is the regression test for a signed
// equivocation that read as "up to date". A client installs genuine
// release 1, then a two-key forgery at version 2. The genuine release 2
// carries other targets at the same version counters: it must be
// rejected as ErrEquivocation, counted and traced as a rejection, and
// change no ECU, while the installed forgery itself still re-polls as
// current.
func TestApplyCachedRejectsEquivocation(t *testing.T) {
	f := newCampaignFixture(t, sim.Hour)
	vc := NewVerifyCache()
	c := f.newVehicle(t, "VIN-1", 1)
	tr := obs.NewTracer(0)
	c.Instrument(tr, nil)
	if err := c.ApplyCached(f.bundle, sim.Minute, vc); err != nil {
		t.Fatalf("genuine release 1: %v", err)
	}
	implant := []byte("brake implant")
	evil := MakeTarget("brake-fw", 3, "brake-mcu-r2", implant)
	forged := &Bundle{
		Director: ForgeMetadata(f.director.StealKey(), "director", "model-S", 2, []Target{evil}, sim.Hour),
		Image:    ForgeMetadata(f.image.StealKey(), "image", "", 2, []Target{evil}, sim.Hour),
		Payloads: map[string][]byte{"brake-fw": implant},
	}
	if err := c.ApplyCached(forged, 2*sim.Minute, vc); err != nil {
		t.Fatalf("two-key forgery: %v", err)
	}
	p := []byte("brake firmware v4")
	genuine := MakeTarget("brake-fw", 4, "brake-mcu-r2", p)
	release2 := &Bundle{
		Director: f.director.Sign("model-S", []Target{genuine}, sim.Hour),
		Image:    f.image.Sign("", []Target{genuine}, sim.Hour),
		Payloads: map[string][]byte{"brake-fw": p},
	}
	if release2.Director.version != 2 || release2.Image.version != 2 {
		t.Fatalf("release 2 signed at versions %d and %d", release2.Director.version, release2.Image.version)
	}
	if err := c.ApplyCached(release2, 3*sim.Minute, vc); !errors.Is(err, ErrEquivocation) {
		t.Fatalf("genuine release at the forgery's versions: %v, want ErrEquivocation", err)
	}
	if ecu, _ := c.ECU("brake-mcu-r2"); ecu.InstalledVersion != 3 {
		t.Fatalf("rejected equivocation moved the ECU to version %d", ecu.InstalledVersion)
	}
	if c.Installed.Value != 2 || c.Rejected.Value != 1 || c.UpToDate.Value != 0 {
		t.Fatalf("counters installed=%d rejected=%d uptodate=%d, want 2, 1 and 0",
			c.Installed.Value, c.Rejected.Value, c.UpToDate.Value)
	}
	evs := tr.Events()
	if last := evs[len(evs)-1]; tr.LabelString(last.Name) != "reject" || tr.LabelString(last.Str) != "equivocation" {
		t.Fatalf("last trace event %s %q, want reject \"equivocation\"", tr.LabelString(last.Name), tr.LabelString(last.Str))
	}
	if err := c.ApplyCached(forged, 4*sim.Minute, vc); !errors.Is(err, ErrNoUpdate) {
		t.Fatalf("re-poll of the installed statements: %v, want ErrNoUpdate", err)
	}
}

// withDirectorSig returns a copy of b whose director metadata carries sig
// instead of its own signature; the content is unchanged.
func withDirectorSig(b *Bundle, sig []byte) *Bundle {
	c := *b
	c.Director = variant(b.Director, func(v *Metadata) { v.sig = sig })
	return &c
}

// TestApplyCachedCorruptCopyKeepsGenuine pins that a rejected copy cannot
// poison the cache: after a copy with one flipped signature byte is
// checked, the genuine bundle still applies.
func TestApplyCachedCorruptCopyKeepsGenuine(t *testing.T) {
	f := newCampaignFixture(t, sim.Hour)
	vc := NewVerifyCache()
	sig := append([]byte(nil), f.bundle.Director.sig...)
	sig[0] ^= 0x01
	if err := f.newVehicle(t, "VIN-1", 1).ApplyCached(withDirectorSig(f.bundle, sig), sim.Minute, vc); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("corrupt copy: %v", err)
	}
	if err := f.newVehicle(t, "VIN-2", 1).ApplyCached(f.bundle, sim.Minute, vc); err != nil {
		t.Fatalf("genuine bundle after a corrupt copy: %v", err)
	}
}

// TestApplyCachedGenuineDoesNotVouchForCopy pins the other direction:
// after the genuine bundle is cached, a copy with an all-zero signature
// is still rejected.
func TestApplyCachedGenuineDoesNotVouchForCopy(t *testing.T) {
	f := newCampaignFixture(t, sim.Hour)
	vc := NewVerifyCache()
	if err := f.newVehicle(t, "VIN-1", 1).ApplyCached(f.bundle, sim.Minute, vc); err != nil {
		t.Fatal(err)
	}
	zero := make([]byte, ed25519.SignatureSize)
	if err := f.newVehicle(t, "VIN-2", 1).ApplyCached(withDirectorSig(f.bundle, zero), sim.Minute, vc); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("all-zero signature after the genuine bundle: %v", err)
	}
}

// TestSigValidMatchesColdVerify is the cache's oracle: over random
// sequences of (content, signature) lookups, at 1 and 8 workers sharing
// one cache, every memoized verdict equals a cold ed25519.Verify over
// bytes rendered afresh from the fields. Half the lookups use a fixed
// pool of sealed objects, one per (content, signature) pair; the rest
// use a fresh struct copy of one of them.
func TestSigValidMatchesColdVerify(t *testing.T) {
	f := newCampaignFixture(t, sim.Hour)
	other := MakeTarget("brake-fw", 3, "brake-mcu-r2", []byte("v3"))
	contents := []*Metadata{
		f.bundle.Director,
		f.bundle.Image,
		f.director.Sign("model-S", []Target{other}, sim.Hour),
		f.image.Sign("", []Target{other}, sim.Hour),
	}
	keys := []ed25519.PublicKey{f.director.PublicKey(), f.image.PublicKey()}
	// Signature variants per content: its own, one byte flipped, all
	// zero, another content's, and three of the wrong length.
	var sigs [][]byte
	for _, m := range contents {
		flipped := append([]byte(nil), m.sig...)
		flipped[len(flipped)-1] ^= 0x80
		sigs = append(sigs, m.sig, flipped)
	}
	sigs = append(sigs, make([]byte, ed25519.SignatureSize), nil,
		contents[0].sig[:ed25519.SignatureSize-1], append(append([]byte(nil), contents[0].sig...), 0))
	var pool []*Metadata
	for _, m := range contents {
		for _, sig := range sigs {
			pool = append(pool, variant(m, func(v *Metadata) { v.sig = sig }))
		}
	}

	type lookup struct {
		m   *Metadata
		key ed25519.PublicKey
	}
	for _, workers := range []int{1, 8} {
		rnd := sim.NewStream(uint64(workers), "ota.sigvalid")
		seq := make([]lookup, 4000)
		for i := range seq {
			m, key := pool[rnd.Intn(len(pool))], keys[rnd.Intn(len(keys))]
			if rnd.Intn(2) == 0 {
				c := *m
				m = &c
			}
			seq[i] = lookup{m: m, key: key}
		}
		vc := NewVerifyCache()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(seq); i += workers {
					l := seq[i]
					cold := ed25519.Verify(l.key, l.m.canonical(), l.m.sig)
					if got := vc.sigValid(l.m, l.key); got != cold {
						t.Errorf("workers=%d lookup %d: cached verdict %v, cold verify %v", workers, i, got, cold)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if pairs := len(pool) * len(keys); sigEntries(vc) > pairs {
			t.Errorf("workers=%d: cache holds %d verdicts for %d (object, key) pairs", workers, sigEntries(vc), pairs)
		}
	}
}

// TestVerifyCacheSingleFlight starts 8 goroutines together on one cold
// cache, each looking up the same K unseen (content, signature, key)
// triples, half of them in reverse order, so they race both to the same
// key and to different keys while the table grows twice. The cache must
// perform exactly K ed25519 verifications, one per key, and every
// verdict must equal a cold verify.
func TestVerifyCacheSingleFlight(t *testing.T) {
	const workers, k = 8, 40
	f := newCampaignFixture(t, sim.Hour)
	type lookup struct {
		m    *Metadata
		key  ed25519.PublicKey
		want bool
	}
	lookups := make([]lookup, k)
	for i := range lookups {
		target := MakeTarget("brake-fw", uint64(i+2), "brake-mcu-r2", []byte{byte(i)})
		m, key := f.director.Sign("model-S", []Target{target}, sim.Hour), f.director.PublicKey()
		switch i % 4 {
		case 1:
			m = variant(m, func(v *Metadata) { v.sig[0] ^= 0x01 })
		case 2:
			key = f.image.PublicKey()
		}
		lookups[i] = lookup{m: m, key: key, want: ed25519.Verify(key, m.canonical(), m.sig)}
	}
	vc := NewVerifyCache()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for j := range lookups {
				if w%2 == 1 {
					j = k - 1 - j
				}
				if l := lookups[j]; vc.sigValid(l.m, l.key) != l.want {
					t.Errorf("worker %d, key %d: cached verdict differs from the cold verify %v", w, j, l.want)
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if st := vc.Stats(); st.SigLookups != workers*k || st.SigVerifies != k || sigEntries(vc) != k {
		t.Fatalf("%d lookups, %d cold verifies, %d entries; want %d, %d and %d",
			st.SigLookups, st.SigVerifies, sigEntries(vc), workers*k, k, k)
	}
}

// TestVerifyCacheCopiesShareOneEntry: struct copies of a published
// statement carry its sealed digest, so 1,000 of them answer from the
// one entry its first lookup made, with one cold verification.
func TestVerifyCacheCopiesShareOneEntry(t *testing.T) {
	f := newCampaignFixture(t, sim.Hour)
	pub, key := f.bundle.Director, f.director.PublicKey()
	vc := NewVerifyCache()
	for i := 0; i < 1000; i++ {
		c := *pub
		if !vc.sigValid(&c, key) {
			t.Fatalf("copy %d rejected", i)
		}
	}
	if st := vc.Stats(); st.SigLookups != 1000 || st.SigVerifies != 1 || sigEntries(vc) != 1 {
		t.Fatalf("1,000 copies: %d lookups, %d cold verifies, %d entries; want 1000, 1 and 1",
			st.SigLookups, st.SigVerifies, sigEntries(vc))
	}
}

// sigEntries counts the signature verdicts vc holds.
func sigEntries(vc *VerifyCache) int {
	vc.sigs.mu.Lock()
	defer vc.sigs.mu.Unlock()
	return vc.sigs.used
}

// TestSigKeyInline pins SigKey at or below 128 bytes: every lookup, hit
// or miss, hashes the whole key and compares it with the entry's, so it
// must stay two fixed-size digests rather than grow toward the bytes it
// stands for.
func TestSigKeyInline(t *testing.T) {
	if n := unsafe.Sizeof(SigKey{}); n > 128 {
		t.Fatalf("SigKey is %d bytes", n)
	}
}

func TestApplyCachedBadBundleStaysBad(t *testing.T) {
	// Attestation failures are cached too: the whole fleet rejects a
	// tampered bundle after one cold cross-check.
	f := newCampaignFixture(t, sim.Hour)
	f.bundle.Payloads["brake-fw"] = []byte("tampered")
	vc := NewVerifyCache()
	for i := 0; i < 10; i++ {
		c := f.newVehicle(t, "VIN", 1)
		if err := c.ApplyCached(f.bundle, sim.Minute, vc); !errors.Is(err, ErrHashMismatch) {
			t.Fatalf("vehicle %d: %v", i, err)
		}
	}
	if st := vc.Stats(); st.AttestBuilds != 1 {
		t.Fatalf("attest built %d times", st.AttestBuilds)
	}
}

func TestApplyCachedNilCacheFallsBack(t *testing.T) {
	f := newCampaignFixture(t, sim.Hour)
	c := f.newVehicle(t, "VIN-1", 1)
	// Group addressing is an ApplyCached semantic; plain Apply rejects it,
	// which is exactly the nil-cache fallback contract.
	if err := c.ApplyCached(f.bundle, sim.Minute, nil); !errors.Is(err, ErrWrongVehicle) {
		t.Fatalf("nil cache should behave like Apply: %v", err)
	}
}

// TestApplyCachedMemoizedAllocFree pins the 0-alloc contract of the
// memoized verify path: a warmed client re-polling current metadata
// (the steady state of every vehicle in every later campaign wave)
// allocates nothing.
func TestApplyCachedMemoizedAllocFree(t *testing.T) {
	f := newCampaignFixture(t, sim.Hour)
	vc := NewVerifyCache()
	c := f.newVehicle(t, "VIN-1", 1)
	if err := c.ApplyCached(f.bundle, sim.Minute, vc); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyCached(f.bundle, sim.Minute, vc); !errors.Is(err, ErrNoUpdate) {
		t.Fatal("fixture not in steady state")
	}
	n := testing.AllocsPerRun(200, func() {
		if err := c.ApplyCached(f.bundle, sim.Minute, vc); !errors.Is(err, ErrNoUpdate) {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("memoized verify path allocates %.1f times per call", n)
	}
}

func BenchmarkCampaignVerifyThroughputCold(b *testing.B) {
	f, vc := benchFixture(b)
	c := f.newVehicleB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh cache every poll: every signature is verified cold.
		cold := NewVerifyCache()
		if err := c.ApplyCached(f.bundle, sim.Minute, cold); err != nil && !errors.Is(err, ErrNoUpdate) {
			b.Fatal(err)
		}
	}
	_ = vc
}

func BenchmarkCampaignVerifyThroughputMemoized(b *testing.B) {
	f, vc := benchFixture(b)
	c := f.newVehicleB(b)
	// The install verifies cold; every re-poll after it is memoized.
	if err := c.ApplyCached(f.bundle, sim.Minute, vc); err != nil {
		b.Fatal(err)
	}
	if err := c.ApplyCached(f.bundle, sim.Minute, vc); !errors.Is(err, ErrNoUpdate) {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ApplyCached(f.bundle, sim.Minute, vc); !errors.Is(err, ErrNoUpdate) {
			b.Fatal(err)
		}
	}
}

func benchFixture(b *testing.B) (*campaignFixture, *VerifyCache) {
	b.Helper()
	d, err := NewRepository("director")
	if err != nil {
		b.Fatal(err)
	}
	im, err := NewRepository("image")
	if err != nil {
		b.Fatal(err)
	}
	payload := []byte("brake firmware v2 image bytes ........")
	target := MakeTarget("brake-fw", 2, "brake-mcu-r2", payload)
	f := &campaignFixture{
		director: d, image: im, payload: payload, target: target,
		bundle: &Bundle{
			Director: d.Sign("model-S", []Target{target}, sim.Hour),
			Image:    im.Sign("", []Target{target}, sim.Hour),
			Payloads: map[string][]byte{"brake-fw": payload},
		},
	}
	return f, NewVerifyCache()
}

func (f *campaignFixture) newVehicleB(b *testing.B) *Client {
	b.Helper()
	c := NewClient("VIN-bench", f.director.PublicKey(), f.image.PublicKey())
	c.Group = "model-S"
	c.AddECU("brake-mcu-r2", 1)
	return c
}
