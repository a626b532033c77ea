package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"latticesim/internal/core"
	"latticesim/internal/hardware"
	"latticesim/internal/mc"
	"latticesim/internal/surface"
)

// TestRecordGoldenPin pins Monte Carlo output across commits. The
// equivalence suites compare execution paths within one build, so a
// change every path shares would pass them; these literals were recorded
// once and must never be re-pinned to fit a change. A failure means
// records drifted — fix the code, or, for an intentional change of
// results, bump the service's result schema version and document the
// migration.
func TestRecordGoldenPin(t *testing.T) {
	// Two full shards plus a remainder, so the shard fold and the
	// partial final batch are both covered.
	const shots, seed = 2*mc.ShardShots + 100, 20240917
	for _, tc := range []struct {
		d    int
		want mc.LERResult
	}{
		{3, mc.LERResult{Shots: 8292, Errors: []int{155, 80}, DetectorFires: 31887}},
		{5, mc.LERResult{Shots: 8292, Errors: []int{56, 30}, DetectorFires: 150829}},
	} {
		res, err := surface.MergeSpec{D: tc.d, Basis: surface.BasisX, HW: hardware.IBM(), P: 1e-3}.Build()
		if err != nil {
			t.Fatal(err)
		}
		pl, err := mc.NewPipeline(res.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		pl.Workers = 2
		if got := pl.Run(shots, seed); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("d=%d: Pipeline.Run = %#v, pinned %#v", tc.d, got, tc.want)
		}
	}

	hw := hardware.IBM()
	cache := NewBuildCache()
	for _, tc := range []struct {
		policy core.Policy
		want   string // SHA-256 of the canonical record JSON
	}{
		{core.Passive, "2a20cd60410ff47232b822468ac837e45cce368de2bae1e440328c03fe454d78"},
		{core.Active, "90993c61d7368a50850f6d7f013bf5abb8e4eb965df734bafdd9c594c6db43c0"},
		{core.Hybrid, "ce0fb2f1ae989f147718c2f911e885065b0af565948424070990f67c57b1860b"},
	} {
		pt := Point{
			HW: hw, Policy: tc.policy, D: 3, TauNs: 500, P: 1e-3,
			Basis: surface.BasisX, CyclePNs: hw.CycleNs(), CyclePPrimeNs: 2500, EpsNs: 400,
		}
		rec, err := ExecutePoint(cache, pt, Config{Shots: shots, Seed: seed, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		b, err := rec.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: canonical record SHA-256 = %s, pinned %s\nrecord: %s", tc.policy, got, tc.want, b)
		}
	}
}
