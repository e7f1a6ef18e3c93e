package ota

import (
	"crypto/ed25519"
	"errors"
	"reflect"
	"sync"
	"testing"
	"unsafe"

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

// withDirectorSig returns a copy of b whose director metadata carries sig
// instead of its own signature; the content is unchanged.
func withDirectorSig(b *Bundle, sig []byte) *Bundle {
	d := *b.Director
	d.Sig = sig
	c := *b
	c.Director = &d
	return &c
}

// TestApplyCachedCorruptCopyKeepsGenuine pins that a rejected copy cannot
// poison the cache: after a copy with one flipped signature byte is
// checked, the genuine bundle still applies.
func TestApplyCachedCorruptCopyKeepsGenuine(t *testing.T) {
	f := newCampaignFixture(t, sim.Hour)
	vc := NewVerifyCache()
	sig := append([]byte(nil), f.bundle.Director.Sig...)
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
// one cache, every memoized verdict equals a cold ed25519.Verify. Half
// the lookups use a fresh struct copy (always the content path); the
// rest reuse a fixed pool of objects, which reach the identity memo.
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
		flipped := append([]byte(nil), m.Sig...)
		flipped[len(flipped)-1] ^= 0x80
		sigs = append(sigs, m.Sig, flipped)
	}
	sigs = append(sigs, make([]byte, ed25519.SignatureSize), nil,
		contents[0].Sig[:ed25519.SignatureSize-1], append(append([]byte(nil), contents[0].Sig...), 0))
	// The fixed pool: one object per (content, signature) pair.
	var pool []*Metadata
	for _, m := range contents {
		for _, sig := range sigs {
			p := *m
			p.Sig = sig
			pool = append(pool, &p)
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
			key := keys[rnd.Intn(len(keys))]
			if rnd.Intn(2) == 0 {
				seq[i] = lookup{m: pool[rnd.Intn(len(pool))], key: key}
				continue
			}
			m := *contents[rnd.Intn(len(contents))]
			m.Sig = sigs[rnd.Intn(len(sigs))]
			seq[i] = lookup{m: &m, key: key}
		}
		vc := NewVerifyCache()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var scratch canonicalScratch
				for i := w; i < len(seq); i += workers {
					l := seq[i]
					cold := ed25519.Verify(l.key, l.m.canonical(), l.m.Sig)
					if got := vc.sigValid(l.m, l.key, &scratch); got != cold {
						t.Errorf("workers=%d lookup %d: cached verdict %v, cold verify %v", workers, i, got, cold)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if len(vc.idents) == 0 {
			t.Errorf("workers=%d: no pooled object was promoted to an identity memo", workers)
		}
	}
}

// TestSigValidIdentityMemoTracksMutation promotes one published object
// to an identity memo, then mutates it in place one field at a time,
// through an alias that shares its backing arrays the way a struct copy
// does. Every mutated lookup must answer like a cold verify, and once
// the original is restored the memo must answer again without a render.
func TestSigValidIdentityMemoTracksMutation(t *testing.T) {
	f := newCampaignFixture(t, sim.Hour)
	adas := MakeTarget("adas-fw", 2, "adas-soc-r1", []byte("adas model weights v2"))
	m := f.director.Sign("model-S", []Target{f.target, adas}, sim.Hour)
	key := f.director.PublicKey()
	vc := NewVerifyCache()

	// lookup returns the cached verdict and whether it rendered the
	// canonical bytes (false: the identity memo answered).
	lookup := func() (valid, rendered bool) {
		var s canonicalScratch
		valid = vc.sigValid(m, key, &s)
		return valid, s.buf != nil
	}
	if v, r := lookup(); !v || !r {
		t.Fatalf("first sight: valid=%v rendered=%v", v, r)
	}
	if len(vc.idents) != 0 {
		t.Fatal("first sight created an identity memo")
	}
	if v, r := lookup(); !v || !r {
		t.Fatalf("second sight: valid=%v rendered=%v", v, r)
	}
	if v, r := lookup(); !v || r {
		t.Fatalf("promoted object: valid=%v rendered=%v, want the memo to answer", v, r)
	}

	alias := *m
	origVehicle := m.VehicleID
	mutations := []struct {
		name     string
		do, undo func()
	}{
		{"flip a signature byte in the shared array", func() { alias.Sig[7] ^= 0x20 }, func() { alias.Sig[7] ^= 0x20 }},
		{"bump Version", func() { m.Version++ }, func() { m.Version-- }},
		{"change Expires", func() { m.Expires += sim.Second }, func() { m.Expires -= sim.Second }},
		{"change VehicleID", func() { m.VehicleID = "model-X" }, func() { m.VehicleID = origVehicle }},
		{"change Targets[0].Hash through the shared slice", func() { alias.Targets[0].Hash[3] ^= 0x01 }, func() { alias.Targets[0].Hash[3] ^= 0x01 }},
		{"swap two targets", func() { alias.Targets[0], alias.Targets[1] = alias.Targets[1], alias.Targets[0] },
			func() { alias.Targets[0], alias.Targets[1] = alias.Targets[1], alias.Targets[0] }},
	}
	for _, mu := range mutations {
		mu.do()
		cold := ed25519.Verify(key, m.canonical(), m.Sig)
		for i := 0; i < 2; i++ {
			if got, _ := lookup(); got != cold {
				t.Fatalf("%s, lookup %d: cached verdict %v, cold verify %v", mu.name, i, got, cold)
			}
		}
		mu.undo()
		if v, r := lookup(); !v || r {
			t.Fatalf("after restoring %s: valid=%v rendered=%v, want the memo to answer", mu.name, v, r)
		}
	}
}

// TestSigValidOneMemoPerVerdict bounds the identity memos by the content
// verdicts: looking up a published statement and then 1,000 fresh struct
// copies of it must leave one verdict and at most one memo, and every
// copy must still answer like a cold verify. The published object, seen
// again, gets its memo on that second sight.
func TestSigValidOneMemoPerVerdict(t *testing.T) {
	f := newCampaignFixture(t, sim.Hour)
	pub, key := f.bundle.Director, f.director.PublicKey()
	vc := NewVerifyCache()
	var s canonicalScratch
	if !vc.sigValid(pub, key, &s) {
		t.Fatal("published statement rejected")
	}
	for i := 0; i < 1000; i++ {
		c := *pub
		if !vc.sigValid(&c, key, &s) {
			t.Fatalf("copy %d rejected", i)
		}
	}
	if len(vc.sigs) != 1 || len(vc.idents) > 1 {
		t.Fatalf("cache holds %d verdicts and %d identity memos, want 1 and at most 1", len(vc.sigs), len(vc.idents))
	}

	vc = NewVerifyCache()
	for i := 0; i < 2; i++ {
		vc.sigValid(pub, key, &s)
	}
	if vc.idents[identKey{m: pub, key: [ed25519.PublicKeySize]byte(key)}] == nil {
		t.Fatal("published statement not promoted on its second sight")
	}
}

// TestSigMemoCoversMetadata fails when Metadata or Target gains a field,
// so the identity snapshot and its compare cannot silently miss one.
func TestSigMemoCoversMetadata(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(Metadata{}), []string{"Repo", "Version", "Expires", "VehicleID", "Targets", "Sig"}},
		{reflect.TypeOf(Target{}), []string{"Name", "Version", "HWID", "Length", "Hash"}},
	} {
		var got []string
		for i := 0; i < c.typ.NumField(); i++ {
			got = append(got, c.typ.Field(i).Name)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v fields %v, sigMemo covers %v: update sigMemo and its matches", c.typ, got, c.want)
		}
	}
}

// TestSigKeyInline pins SigKey at or below 128 bytes: Go stores larger
// map keys out of line and allocates on every insert, which would add to
// every cold verification.
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
	// The install verifies cold; the first re-poll promotes both
	// metadata objects to identity memos.
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
