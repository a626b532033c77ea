package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"latticesim/internal/core"
	"latticesim/internal/hardware"
	"latticesim/internal/surface"
	"latticesim/internal/sweep"
	"latticesim/internal/trace"
)

// factory8-d5 simulates traces/factory8.trace at d=5 under all six
// policies from a cold build cache, with the trace.Config built exactly
// as `latticesim trace -in traces/factory8.trace -d 5` builds it. A
// request is one merge event; the timed phase repeats whole cold runs.

// factoryRef is one policy's expected summary: the plan arithmetic is
// exact, the program LER is what `latticesim trace -in
// traces/factory8.trace -d 5` prints (seed 0xC0FFEE, 4096 shots).
type factoryRef struct {
	policy                           core.Policy
	runtimeNs                        float64
	extraRounds, fallbacks, idleRnds int
	ler                              float64
}

var factoryRefs = []factoryRef{
	{core.Ideal, 142705, 0, 0, 41, 0.0510034},
	{core.Passive, 153405, 0, 0, 41, 0.0563358},
	{core.Active, 153405, 0, 0, 41, 0.0540199},
	{core.ActiveIntra, 153405, 0, 0, 41, 0.0570379},
	{core.ExtraRounds, 326435, 329, 10, 41, 0.117959},
	{core.Hybrid, 170345, 32, 6, 41, 0.0609605},
}

// factoryLERZ is how many standard deviations of the difference between
// a run's program LER and the reference the check allows.
const factoryLERZ = 5

// factoryTrace is the bundled program, relative to the module root.
var factoryTrace = filepath.Join("traces", "factory8.trace")

// loadFactory reads and parses the trace and resolves the CLI's
// configuration for it.
func loadFactory(root string, seed uint64, shots int) (*trace.Program, trace.Config, error) {
	f, err := os.Open(filepath.Join(root, factoryTrace))
	if err != nil {
		return nil, trace.Config{}, err
	}
	defer f.Close()
	prog, err := trace.Parse(f)
	if err != nil {
		return nil, trace.Config{}, fmt.Errorf("%s: %w", factoryTrace, err)
	}
	hw, ok := hardware.ByName("IBM")
	if !ok {
		return nil, trace.Config{}, errors.New("no IBM hardware profile")
	}
	cfg := trace.Config{
		HW: hw.Scaled(1000), Basis: surface.BasisX, EpsNs: 400, MaxZ: 5,
		Shots: shots, Seed: seed, Workers: busyThreads, StaggerNs: 135,
	}.WithDefaults()
	cfg.D, cfg.P = 5, 1e-3
	return prog, cfg, nil
}

func (e *env) factoryPolicies() []core.Policy {
	var pols []core.Policy
	for _, r := range factoryRefs[:e.sz.factoryPolicies] {
		pols = append(pols, r.policy)
	}
	return pols
}

func runFactory(e *env) (outcome, error) {
	var out outcome
	var (
		prog *trace.Program
		cfg  trace.Config
	)
	// No forced GC between parses, unlike the other set-ups: a parse takes
	// tens of microseconds, and one after a GC times a cold cache.
	for r := 0; r < e.sz.parseReps; r++ {
		t0 := time.Now()
		var err error
		if prog, cfg, err = loadFactory(e.root, splitmix(e.seed, 0), e.sz.factoryShots); err != nil {
			return out, err
		}
		out.setup = append(out.setup, time.Since(t0))
	}
	pols := e.factoryPolicies()
	var err error
	var gc time.Duration
	out.wall, err = timedLoop(e, e.sz.factoryRuns, func(i int) error {
		// Collect the previous run's cache first, untimed, so that peak
		// memory is one cold run's and not a matter of GC timing.
		t0 := time.Now()
		runtime.GC()
		gc += time.Since(t0)
		c := cfg
		c.Cache = sweep.NewBuildCache()
		c.Ctx = e.ctx
		var mu sync.Mutex
		last := time.Now()
		c.Progress = func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			now := time.Now()
			out.lat = append(out.lat, ms(now.Sub(last)))
			last = now
		}
		sp := e.tr.start("trace.simulate_all", nil)
		res, err := trace.SimulateAll(prog, pols, c)
		sp.end()
		if !e.ck.op("factory8-d5 run", err) {
			return err
		}
		for _, r := range res {
			out.shots += int64(r.MergeOps) * int64(c.Shots)
		}
		checkFactory(e, res)
		return nil
	})
	out.wall -= gc
	return out, err
}

// checkFactory checks one run's per-policy summaries: the plan
// arithmetic exactly, each program LER within factoryLERZ standard
// deviations of the reference, and the LERs summed over policies the
// same way, which catches a configuration that shifts every policy a
// little.
func checkFactory(e *env, res []*trace.Result) {
	if !e.ck.check(len(res) == e.sz.factoryPolicies, "factory8-d5 returned %d results, want %d", len(res), e.sz.factoryPolicies) {
		return
	}
	var sumDiff, sumVar float64
	for i, r := range res {
		ref := factoryRefs[i]
		e.ck.check(r.Policy == ref.policy && r.RuntimeNs == ref.runtimeNs && r.ExtraRounds == ref.extraRounds &&
			r.FallbackPairs == ref.fallbacks && r.IdleRounds == ref.idleRnds,
			"factory8-d5 %s: runtime_ns=%.0f extra_rounds=%d fallback_pairs=%d idle_rounds=%d, want %s %.0f/%d/%d/%d",
			r.Policy, r.RuntimeNs, r.ExtraRounds, r.FallbackPairs, r.IdleRounds,
			ref.policy, ref.runtimeNs, ref.extraRounds, ref.fallbacks, ref.idleRnds)
		v := lerVariance(r, e.sz.factoryShots)
		diff := r.ProgramLER - ref.ler
		sumDiff += diff
		sumVar += v
		e.ck.check(math.Abs(diff) <= factoryLERZ*math.Sqrt(2*v),
			"factory8-d5 %s: program_ler=%.6g, reference %.6g ± %.2g", r.Policy, r.ProgramLER, ref.ler, factoryLERZ*math.Sqrt(2*v))
	}
	e.ck.check(math.Abs(sumDiff) <= factoryLERZ*math.Sqrt(2*sumVar),
		"factory8-d5: program LERs summed over policies differ from the references by %.4g (allowed %.4g)",
		sumDiff, factoryLERZ*math.Sqrt(2*sumVar))
}

// lerVariance estimates the sampling variance of a program LER from
// its per-merge failure probabilities, each measured with shots shots:
// Σ q(1−q)/shots, to first order in the product 1 − Π(1 − q).
func lerVariance(r *trace.Result, shots int) float64 {
	v := 0.0
	for _, m := range r.PerMerge {
		q := math.Max(m.FailProb, 1/float64(shots))
		v += q * (1 - q) / float64(shots)
	}
	return v
}

// probeFactory runs the workload cold and then again on the warm cache:
// the difference is the time spent building.
func probeFactory(e *env) (map[string]float64, error) {
	prog, cfg, err := loadFactory(e.root, splitmix(e.seed, 0), e.sz.factoryShots)
	if err != nil {
		return nil, err
	}
	cfg.Cache = sweep.NewBuildCache()
	cfg.Ctx = e.ctx
	pols := e.factoryPolicies()
	sp := e.tr.start("trace.cold", nil)
	res, err := trace.SimulateAll(prog, pols, cfg)
	cold := sp.end()
	if !e.ck.op("factory8-d5 probe cold run", err) {
		return nil, err
	}
	checkFactory(e, res)
	hits, builds := cfg.Cache.Stats()
	sp = e.tr.start("trace.warm", nil)
	res, err = trace.SimulateAll(prog, pols, cfg)
	warm := sp.end()
	if !e.ck.op("factory8-d5 probe warm run", err) {
		return nil, err
	}
	checkFactory(e, res)
	return map[string]float64{
		"sweep.cache_builds": float64(builds),
		"sweep.cache_hits":   float64(hits),
		"trace.build_s":      (cold - warm).Seconds(),
		"trace.warm_s":       warm.Seconds(),
	}, nil
}
