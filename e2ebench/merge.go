package main

import (
	"fmt"
	"time"

	"latticesim/internal/decoder"
	"latticesim/internal/dem"
	"latticesim/internal/frame"
	"latticesim/internal/stats"
	"latticesim/internal/surface"
	"latticesim/internal/sweep"
)

// merge-d7 runs one sweep point (IBM, Active, d=7, τ=1000ns, p=1e-3,
// X basis) as repeated requests of mergeShots shots each, on an
// artifact built during set-up, with a two-worker Monte Carlo pool. A
// request of two 4096-shot shards keeps both workers busy.

// mergeRefRate is the point's joint logical error rate, measured with
// 1,048,576 shots on the default path (seed 0xC0FFEE): 2,851 errors.
const (
	mergeRefRate = 2851.0 / 1048576
	// mergeBandZ and mergeBandTol make the band wide: the pooled rate's
	// 5σ Wilson interval must meet ref·(1 ± 20%).
	mergeBandZ   = 5
	mergeBandTol = 0.2
)

// mergePoint resolves the merge-d7 point exactly as `latticesim sweep
// -hw IBM -policies Active -d 7 -tau 1000 -p 1e-3 -bases X` does.
func mergePoint() (sweep.Point, error) {
	g, err := sweep.ParseGridSpec(sweep.GridSpec{
		Hardware: "IBM", Policies: "Active", Distances: "7",
		TausNs: "1000", ErrorRates: "1e-3", Bases: "X",
	})
	if err != nil {
		return sweep.Point{}, err
	}
	pts, err := g.Points()
	if err != nil {
		return sweep.Point{}, err
	}
	if len(pts) != 1 {
		return sweep.Point{}, fmt.Errorf("merge grid has %d points, want 1", len(pts))
	}
	return pts[0], nil
}

// buildMergeArtifact builds the point's artifact into a fresh cache.
func buildMergeArtifact(pt sweep.Point) (*sweep.BuildCache, error) {
	spec, _, ok := pt.Resolve()
	if !ok {
		return nil, fmt.Errorf("merge point %s is infeasible", pt.Key())
	}
	cache := sweep.NewBuildCache()
	_, _, err := cache.Get(spec)
	return cache, err
}

func runMerge(e *env) (outcome, error) {
	var out outcome
	pt, err := mergePoint()
	if err != nil {
		return out, err
	}
	var cache *sweep.BuildCache
	for r := 0; r < e.sz.buildReps; r++ {
		d, err := timeSetup(func() (err error) {
			cache, err = buildMergeArtifact(pt)
			return err
		})
		if err != nil {
			return out, err
		}
		out.setup = append(out.setup, d)
	}

	var errs, shots int
	out.wall, err = timedLoop(e, e.sz.minReqs, func(i int) error {
		cfg := sweep.Config{Shots: e.sz.mergeShots, Seed: splitmix(e.seed, i), Workers: busyThreads, Ctx: e.ctx}
		sp := e.tr.start("sweep.execute_point", nil)
		t0 := time.Now()
		rec, err := sweep.ExecutePoint(cache, pt, cfg)
		lat := time.Since(t0)
		sp.end()
		if !e.ck.op("merge-d7 request", err) {
			return err
		}
		out.lat = append(out.lat, ms(lat))
		e.ck.check(rec.Shots == cfg.Shots && rec.ShotsGranted == cfg.Shots,
			"merge-d7 request %d ran %d/%d shots, want %d", i, rec.ShotsGranted, rec.Shots, cfg.Shots)
		shots += rec.ShotsGranted
		errs += rec.JointErrors
		return nil
	})
	out.shots = int64(shots)
	if err != nil {
		return out, err
	}
	lo, hi := wilson(errs, shots, mergeBandZ)
	e.ck.check(inWilsonBand(errs, shots, mergeRefRate, mergeBandZ, mergeBandTol),
		"merge-d7 joint LER %d/%d (Wilson [%.5f, %.5f]) misses reference %.5f ± %.0f%%",
		errs, shots, lo, hi, mergeRefRate, 100*mergeBandTol)
	return out, nil
}

// probeMerge replays the merge-d7 pipeline through its public stages:
// the build steps one by one, then a single-threaded sample → extract
// → decode loop with the predecoder in front of union-find, and a short
// two-worker run for the parallel efficiency.
func probeMerge(e *env) (map[string]float64, error) {
	pt, err := mergePoint()
	if err != nil {
		return nil, err
	}
	spec, _, _ := pt.Resolve()
	var (
		plan *frame.Plan
		g    *decoder.Graph
		pre  *decoder.Predecoder
	)
	for r := 0; r < e.sz.probeReps; r++ {
		sp := e.tr.start("surface.build", nil)
		res, err := spec.Build()
		sp.end()
		if err != nil {
			return nil, err
		}
		sp = e.tr.start("dem.extract", nil)
		m := dem.FromCircuit(res.Circuit)
		sp.end()
		sp = e.tr.start("decoder.graph", nil)
		g = decoder.BuildGraph(m)
		sp.end()
		if err := g.CheckMatchable(); err != nil {
			return nil, err
		}
		sp = e.tr.start("frame.compile", nil)
		plan = frame.Compile(res.Circuit)
		sp.end()
		sp = e.tr.start("decoder.predecoder_build", nil)
		pre = decoder.NewPredecoder(g)
		sp.end()
	}
	out := map[string]float64{
		"surface.build_ms":            median(e.tr.durations("surface.build")),
		"dem.extract_ms":              median(e.tr.durations("dem.extract")),
		"decoder.graph_ms":            median(e.tr.durations("decoder.graph")),
		"frame.compile_ms":            median(e.tr.durations("frame.compile")),
		"decoder.predecoder_build_ms": median(e.tr.durations("decoder.predecoder_build")),
	}

	sampler := plan.NewSampler()
	ext := frame.NewExtractor()
	dec := pre.NewDecoder(decoder.NewUnionFind(g))
	rng := stats.NewRand(splitmix(e.seed, -1))
	var sb frame.SparseBatch
	shots, defects, errs := 0, 0, 0
	replay := e.tr.start("mc.replay", nil)
	for shots < e.sz.replayShots {
		sp := e.tr.start("frame.sample", replay)
		b := sampler.SampleBatch(rng, 64)
		sp.end()
		sp = e.tr.start("frame.extract", replay)
		ext.Extract(b, &sb)
		sp.end()
		sp = e.tr.start("decoder.decode", replay)
		for i := 0; i < b.Shots; i++ {
			d := sb.Shot(i)
			defects += len(d)
			var pred uint64
			if len(d) > 0 {
				pred = dec.Decode(d)
			}
			errs += int((pred ^ sb.ObsMask[i]) >> surface.ObsJoint & 1)
		}
		sp.end()
		shots += b.Shots
	}
	replayWall := replay.end()
	e.ck.check(inWilsonBand(errs, shots, mergeRefRate, mergeBandZ, mergeBandTol),
		"merge-d7 replay joint LER %d/%d misses reference %.5f", errs, shots, mergeRefRate)
	decoded, hits := dec.Stats()
	perShot := func(name string) float64 { return e.tr.total(name) * 1e6 / float64(shots) }
	out["frame.sample_ns_per_shot"] = perShot("frame.sample")
	out["frame.extract_ns_per_shot"] = perShot("frame.extract")
	out["decoder.decode_ns_per_shot"] = perShot("decoder.decode")
	out["decoder.predecoder_hit_frac"] = float64(hits) / float64(max(decoded, 1))
	out["frame.defects_per_shot"] = float64(defects) / float64(shots)

	cache, err := buildMergeArtifact(pt)
	if err != nil {
		return nil, err
	}
	par := e.tr.start("mc.parallel_run", nil)
	parShots := 0
	for i := 0; i < e.sz.probeReps; i++ {
		rec, err := sweep.ExecutePoint(cache, pt, sweep.Config{Shots: e.sz.mergeShots, Seed: splitmix(e.seed, i), Workers: busyThreads, Ctx: e.ctx})
		if !e.ck.op("merge-d7 probe request", err) {
			return nil, err
		}
		parShots += rec.ShotsGranted
	}
	parWall := par.end()
	replayRate := float64(shots) / replayWall.Seconds()
	out["mc.parallel_eff"] = float64(parShots) / parWall.Seconds() / (busyThreads * replayRate)
	return out, nil
}
