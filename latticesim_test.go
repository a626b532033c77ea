package latticesim_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"latticesim"
)

// TestFacadeQuickstart exercises the public API end to end the way the
// README's quickstart does.
func TestFacadeQuickstart(t *testing.T) {
	spec, plan, ok := latticesim.SpecForPolicy(
		3, latticesim.BasisX, latticesim.IBM(), 1e-3, latticesim.Active, 800, 0, 0, 0)
	if !ok {
		t.Fatal("Active must always be feasible")
	}
	if plan.TotalIdleNs() != 800 {
		t.Fatalf("plan idle %v", plan.TotalIdleNs())
	}
	res, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := latticesim.NewPipeline(res.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	r := pl.Run(2000, 1)
	if r.Rate(latticesim.ObsJoint) <= 0 {
		t.Fatal("expected a nonzero LER at d=3")
	}
}

func TestFacadeSolvers(t *testing.T) {
	if m, n, ok := latticesim.SolveExtraRounds(1000, 1200, 1000, 0); !ok || m != 5 || n != 5 {
		t.Fatalf("Eq. 1: got (%d,%d,%v)", m, n, ok)
	}
	if z, _, res, ok := latticesim.SolveHybrid(1000, 1325, 1000, 400, 0); !ok || z != 4 || res != 300 {
		t.Fatalf("Eq. 2: got (%d,%d,%v)", z, res, ok)
	}
	plan := latticesim.ComputePlan(latticesim.Passive, latticesim.Params{TPNs: 1000, TPPrimeNs: 1000, TauNs: 500})
	if plan.LumpedIdleNs != 500 {
		t.Fatal("passive plan wrong")
	}
	sel := latticesim.SelectPolicy(latticesim.Params{TPNs: 1000, TPPrimeNs: 1325, TauNs: 1000, EpsNs: 400, MaxZ: 5})
	if sel.Policy != latticesim.Hybrid {
		t.Fatalf("runtime selection picked %v", sel.Policy)
	}
}

func TestFacadeSynchronizeK(t *testing.T) {
	patches := []latticesim.PatchState{
		{ID: 0, CycleNs: 1000, ElapsedNs: 100},
		{ID: 1, CycleNs: 1325, ElapsedNs: 900},
		{ID: 2, CycleNs: 1150, ElapsedNs: 0},
	}
	plans := latticesim.SynchronizeK(patches, latticesim.Hybrid, 400, 5)
	if len(plans) != 2 {
		t.Fatalf("plans: %d", len(plans))
	}
}

func TestFacadeEngine(t *testing.T) {
	eng := latticesim.NewEngine(4)
	a, err := eng.Register(1900)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Register(2110)
	if err != nil {
		t.Fatal(err)
	}
	eng.Tick(5000)
	sched, err := eng.PlanSync([]int{a, b}, latticesim.Hybrid, 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	worst, err := eng.VerifySchedule(sched)
	if err != nil {
		t.Fatal(err)
	}
	if worst != 0 {
		t.Fatalf("misaligned schedule: %dns", worst)
	}
}

func TestFacadeDEMAndStimText(t *testing.T) {
	res, err := latticesim.MemorySpec{D: 3, Basis: latticesim.BasisZ, HW: latticesim.IBM(), P: 1e-3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := latticesim.ExtractDEM(res.Circuit)
	if len(m.Errors) == 0 {
		t.Fatal("no DEM errors")
	}
	txt := res.Circuit.Text()
	for _, want := range []string{"QUBIT_COORDS", "DETECTOR", "OBSERVABLE_INCLUDE", "DEPOLARIZE2", "PAULI_CHANNEL_1"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Stim text missing %s", want)
		}
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(latticesim.Experiments()) != 28 {
		t.Fatalf("registry has %d experiments, want 28", len(latticesim.Experiments()))
	}
	var buf bytes.Buffer
	if err := latticesim.RunExperiment("fig10", &buf, latticesim.Options{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Not possible") {
		t.Fatal("fig10 output wrong")
	}
	if err := latticesim.RunExperiment("nope", &buf, latticesim.Options{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestFacadeService drives the simulation service through the facade:
// an in-process server, a submitted sweep job, and a cache-hit
// resubmission with byte-identical result bytes.
func TestFacadeService(t *testing.T) {
	svc, err := latticesim.NewService(latticesim.ServiceOptions{MCWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	hs := httptest.NewServer(svc.Handler())
	defer hs.Close()

	client := latticesim.NewServiceClient(hs.URL)
	spec := latticesim.ServiceJob{Type: "sweep", Sweep: &latticesim.ServiceSweepJob{
		Policy: "Active", TauNs: 800, Shots: 512, Seed: 3,
	}}
	st, data, err := client.Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.CacheHit {
		t.Fatalf("first run: state=%s cache_hit=%v", st.State, st.CacheHit)
	}
	st2, data2, err := client.Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit || !bytes.Equal(data, data2) {
		t.Fatalf("resubmission: cache_hit=%v identical=%v", st2.CacheHit, bytes.Equal(data, data2))
	}
}
