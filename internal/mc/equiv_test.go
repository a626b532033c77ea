package mc

// Equivalence tests for the entry points the differential harness does
// not reach: RunProfile, RoundWeights, custom-decoder runs and
// hand-built pipelines must return exactly the same values on the
// production path as on the nil-Plan interpreted reference, for fixed
// (circuit, shots, seed, workers). The Run/RunFrom equivalence lives in
// diff_test.go (external package, via internal/testutil/diffharness).

import (
	"reflect"
	"testing"

	"latticesim/internal/decoder"
	"latticesim/internal/hardware"
	"latticesim/internal/surface"
)

// interpretedClone returns the pipeline's nil-Plan reference copy.
func interpretedClone(p *Pipeline) *Pipeline {
	q := *p
	q.Plan = nil
	return &q
}

func TestCompiledPipelineMatchesInterpreted(t *testing.T) {
	const shots, seed = 10000, 42
	for _, pp := range []float64{1e-3, 1e-4} {
		res, err := surface.MergeSpec{D: 3, Basis: surface.BasisX, HW: hardware.IBM(), P: pp}.Build()
		if err != nil {
			t.Fatal(err)
		}
		pl, err := NewPipeline(res.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Plan == nil {
			t.Fatal("NewPipeline must carry a compiled plan")
		}
		ip := interpretedClone(pl)
		for _, workers := range []int{1, 4} {
			pl.Workers, ip.Workers = workers, workers
			if c, i := pl.RunProfile(shots, seed, surface.ObsJoint), ip.RunProfile(shots, seed, surface.ObsJoint); !reflect.DeepEqual(c, i) {
				t.Fatalf("p=%g workers=%d: RunProfile diverges between compiled and interpreted paths", pp, workers)
			}
			if c, i := pl.RoundWeights(shots, seed), ip.RoundWeights(shots, seed); !reflect.DeepEqual(c, i) {
				t.Fatalf("p=%g workers=%d: RoundWeights diverges between compiled and interpreted paths", pp, workers)
			}
		}
	}
}

// TestCompiledPipelineMatchesInterpretedHierarchical runs the same
// equivalence through RunWithDecoders with a hierarchical decoder — a
// decoder that does NOT qualify for the zero-syndrome fast path — so the
// general per-shot loop is exercised on both paths, and LUT forks are
// exercised across workers.
func TestCompiledPipelineMatchesInterpretedHierarchical(t *testing.T) {
	const shots, seed = 6000, 9
	res, err := surface.MergeSpec{D: 3, Basis: surface.BasisX, HW: hardware.IBM(), P: 1e-3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(res.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	ip := interpretedClone(pl)
	lut := decoder.BuildLUT(pl.Model, 1<<16, 8)
	newDec := func() decoder.Decoder {
		return &decoder.Hierarchical{LUT: lut.Fork(), Slow: decoder.NewUnionFind(pl.Graph), Latency: decoder.DefaultLatencyModel(3)}
	}
	pl.Workers, ip.Workers = 4, 4
	c := pl.RunWithDecoders(newDec, shots, seed)
	i := ip.RunWithDecoders(newDec, shots, seed)
	if !reflect.DeepEqual(c, i) {
		t.Fatalf("RunWithDecoders(hierarchical): compiled %+v != interpreted %+v", c, i)
	}
}

// TestNilPlanPipelineMatchesNewPipeline: a pipeline assembled by hand
// with no Plan runs the interpreted reference with bare union-find, and
// must return exactly what NewPipeline's production path returns.
func TestNilPlanPipelineMatchesNewPipeline(t *testing.T) {
	const shots, seed = 5000, 3
	pl := buildTestPipeline(t, 3)
	bare := &Pipeline{Circuit: pl.Circuit, Model: pl.Model, Graph: pl.Graph} // no Plan
	if got, want := bare.Run(shots, seed), pl.Run(shots, seed); !reflect.DeepEqual(got, want) {
		t.Fatalf("nil-Plan pipeline %+v != compiled pipeline %+v", got, want)
	}
}
