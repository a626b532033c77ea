package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"strconv"
	"time"

	"latticesim/internal/service"
	"latticesim/internal/sweep"
)

// service-mixed drives an in-process server (disk store, one queue
// worker, a two-worker Monte Carlo pool) behind a loopback HTTP server
// with one closed-loop client. Each round submits serviceMisses new
// d=3 sweep points — a build, Monte Carlo and a store write each — and
// then serviceHits repeats of those specs, each a store read and two
// HTTP round trips. Misses are 2 of every 5 requests, so the pooled p50
// reads a hit and the pooled p75 a miss. The server is replaced, untimed,
// every serviceRoundsPerServer rounds: its build cache keeps every
// artifact, so one server for the whole phase would let peak memory
// grow with the number of rounds a run manages.
const (
	serviceMisses          = 2
	serviceHits            = 3
	serviceRoundsPerServer = 25
)

// serviceRig is one running server with its HTTP front end and client.
type serviceRig struct {
	srv    *service.Server
	hs     *httptest.Server
	client *service.Client
	dir    string
}

func (r *serviceRig) close() {
	r.hs.Close()
	r.srv.Close()
	os.RemoveAll(r.dir)
}

// startService starts a server whose disk store lives in a fresh
// directory under the run's scratch directory, and makes one round trip.
func startService(e *env) (*serviceRig, error) {
	dir, err := os.MkdirTemp(e.scratch, "store-")
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Options{DataDir: dir, Workers: 1, MCWorkers: busyThreads})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	rig := &serviceRig{srv: srv, hs: httptest.NewServer(srv.Handler()), dir: dir}
	rig.client = service.NewClient(rig.hs.URL)
	if _, err := rig.client.Stats(e.ctx); err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

// serviceSpec is the i-th distinct miss spec of a run: a feasible d=3
// sweep point whose coordinates and seed come from the workload seed.
func serviceSpec(seed uint64, i, shots int) service.SweepJob {
	r := splitmix(seed, i)
	policies := []string{"Passive", "Active", "Active-intra"}
	rates := []float64{5e-4, 1e-3, 2e-3}
	bases := []string{"X", "Z"}
	return service.SweepJob{
		Hardware: "IBM",
		Policy:   policies[r%3],
		D:        3,
		TauNs:    float64(100 + 10*((r>>8)%191)),
		P:        rates[(r>>16)%3],
		Basis:    bases[(r>>24)%2],
		Shots:    shots,
		// The top 32 bits of r above a 20-bit index keep seeds distinct
		// within a run and below 2^53.
		Seed: (r>>32)<<20 | uint64(i),
	}
}

// directRecord executes the spec's point with sweep.ExecutePoint on the
// given cache and returns its canonical JSON, the bytes a service
// result must equal.
func directRecord(ctx context.Context, cache *sweep.BuildCache, j service.SweepJob) ([]byte, error) {
	g, err := sweep.ParseGridSpec(sweep.GridSpec{
		Hardware: j.Hardware, Policies: j.Policy, Distances: strconv.Itoa(j.D),
		TausNs: fmt.Sprint(j.TauNs), ErrorRates: fmt.Sprint(j.P), Bases: j.Basis,
	})
	if err != nil {
		return nil, err
	}
	pts, err := g.Points()
	if err != nil {
		return nil, err
	}
	rec, err := sweep.ExecutePoint(cache, pts[0], sweep.Config{Shots: j.Shots, Seed: j.Seed, Workers: busyThreads, Ctx: ctx})
	if err != nil {
		return nil, err
	}
	return rec.CanonicalJSON()
}

// sweepSpec wraps a sweep job as a submission.
func sweepSpec(j service.SweepJob) service.JobSpec {
	return service.JobSpec{Type: "sweep", Sweep: &j}
}

func runService(e *env) (outcome, error) {
	var out outcome
	var rig *serviceRig
	for r := 0; r < e.sz.setupReps; r++ {
		if rig != nil {
			rig.close()
		}
		d, err := timeSetup(func() (err error) {
			rig, err = startService(e)
			return err
		})
		if err != nil {
			return out, err
		}
		out.setup = append(out.setup, d)
	}
	defer func() {
		if rig != nil {
			rig.close()
		}
	}()

	type miss struct {
		job  service.SweepJob
		data []byte
	}
	var misses []miss
	var shots int64
	var err error
	var restart time.Duration
	out.wall, err = timedLoop(e, e.sz.minReqs/(serviceMisses+serviceHits)+1, func(round int) error {
		if round > 0 && round%serviceRoundsPerServer == 0 {
			t0 := time.Now()
			rig.close()
			var err error
			if rig, err = startService(e); !e.ck.op("service-mixed restart", err) {
				return err
			}
			restart += time.Since(t0)
		}
		first := len(misses)
		for k := 0; k < serviceMisses; k++ {
			j := serviceSpec(e.seed, len(misses), e.sz.serviceShots)
			sp := e.tr.start("service.run_miss", nil)
			t0 := time.Now()
			st, data, err := rig.client.Run(e.ctx, sweepSpec(j), nil)
			lat := time.Since(t0)
			sp.end()
			if err == nil && st.State != service.StateDone {
				err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
			}
			if !e.ck.op("service-mixed miss", err) {
				return err
			}
			e.ck.check(!st.CacheHit, "service-mixed miss %d was answered from the store", len(misses))
			out.lat = append(out.lat, ms(lat))
			shots += int64(j.Shots)
			misses = append(misses, miss{j, data})
		}
		for k := 0; k < serviceHits; k++ {
			m := misses[first+k%serviceMisses]
			var answer service.JobStatus // the submission's own reply
			sp := e.tr.start("service.run_hit", nil)
			t0 := time.Now()
			_, data, err := rig.client.Run(e.ctx, sweepSpec(m.job), func(st service.JobStatus) {
				if answer.ID == "" {
					answer = st
				}
			})
			lat := time.Since(t0)
			sp.end()
			if !e.ck.op("service-mixed hit", err) {
				return err
			}
			out.lat = append(out.lat, ms(lat))
			// The submission must be answered done, from the store or by
			// the finished miss job it coalesces with, never queued again.
			e.ck.check(answer.State == service.StateDone && bytes.Equal(data, m.data),
				"service-mixed hit of miss %d: answered %s, bytes equal=%v", first+k%serviceMisses, answer.State, bytes.Equal(data, m.data))
		}
		return nil
	})
	out.wall -= restart
	out.shots = shots
	if err != nil {
		return out, err
	}
	// Untimed: sampled misses against a direct ExecutePoint.
	cache := sweep.NewBuildCache()
	for _, i := range sampled(len(misses), e.sz.sampleChecks) {
		want, err := directRecord(e.ctx, cache, misses[i].job)
		if !e.ck.op("service-mixed direct execute", err) {
			return out, err
		}
		e.ck.check(bytes.Equal(bytes.TrimSpace(misses[i].data), want),
			"service-mixed miss %d differs from direct ExecutePoint:\n got %s\nwant %s", i, misses[i].data, want)
	}
	return out, nil
}

// probeService times the service's layers from outside: submit, watch
// and result calls of misses and hits, direct store reads, and a direct
// ExecutePoint of the same miss specs on a fresh cache.
func probeService(e *env) (map[string]float64, error) {
	rig, err := startService(e)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	ctx, c := e.ctx, rig.client
	var keys []string
	var missLat, hitLat []float64
	jobs := make([]service.SweepJob, e.sz.probeMisses)
	for i := range jobs {
		jobs[i] = serviceSpec(splitmix(e.seed, -2), i, e.sz.serviceShots)
		run := e.tr.start("service.miss", nil)
		sp := e.tr.start("service.submit_miss", run)
		st, err := c.Submit(ctx, sweepSpec(jobs[i]))
		sp.end()
		if !e.ck.op("service probe submit", err) {
			return nil, err
		}
		sp = e.tr.start("service.watch", run)
		st, err = c.Watch(ctx, st.ID, nil)
		sp.end()
		if err == nil && st.State != service.StateDone {
			err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		if !e.ck.op("service probe watch", err) {
			return nil, err
		}
		sp = e.tr.start("service.result_miss", run)
		_, err = c.Result(ctx, st.Key)
		sp.end()
		if !e.ck.op("service probe result", err) {
			return nil, err
		}
		missLat = append(missLat, ms(run.end()))
		keys = append(keys, st.Key)
	}
	for i := 0; i < e.sz.probeHits; i++ {
		run := e.tr.start("service.hit", nil)
		sp := e.tr.start("service.submit", run)
		st, err := c.Submit(ctx, sweepSpec(jobs[i%len(jobs)]))
		sp.end()
		if !e.ck.op("service probe hit submit", err) {
			return nil, err
		}
		e.ck.check(st.State == service.StateDone, "service probe hit %d answered %s, not done", i, st.State)
		sp = e.tr.start("service.result", run)
		_, err = c.Result(ctx, st.Key)
		sp.end()
		if !e.ck.op("service probe hit result", err) {
			return nil, err
		}
		hitLat = append(hitLat, ms(run.end()))
		sp = e.tr.start("service.store_get", nil)
		_, ok, err := rig.srv.Store().Get(keys[i%len(keys)])
		sp.end()
		if err == nil && !ok {
			err = fmt.Errorf("stored key %s not found", keys[i%len(keys)])
		}
		if !e.ck.op("service probe store get", err) {
			return nil, err
		}
	}
	cache := sweep.NewBuildCache()
	for _, j := range jobs {
		sp := e.tr.start("sweep.execute", nil)
		_, err := directRecord(ctx, cache, j)
		sp.end()
		if !e.ck.op("service probe direct execute", err) {
			return nil, err
		}
	}
	out := map[string]float64{
		"service.submit_ms":    median(e.tr.durations("service.submit")),
		"service.result_ms":    median(e.tr.durations("service.result")),
		"service.store_get_ms": median(e.tr.durations("service.store_get")),
		"service.watch_ms":     median(e.tr.durations("service.watch")),
		"sweep.execute_ms":     median(e.tr.durations("sweep.execute")),
	}
	out["service.overhead_ms"] = median(missLat) - out["sweep.execute_ms"]
	for name, xs := range map[string][]float64{"service.miss": missLat, "service.hit": hitLat} {
		for _, q := range []float64{0.5, 0.9} {
			v, err := percentile(xs, q)
			if !e.ck.op("service probe percentile", err) {
				return nil, err
			}
			out[fmt.Sprintf("%s_p%g_ms", name, 100*q)] = v
		}
	}
	st := rig.srv.Stats()
	out["service.store_puts"] = float64(st.StorePuts)
	out["service.store_hits"] = float64(st.StoreHits)
	out["service.build_misses"] = float64(st.BuildMisses)
	out["service.attempts"] = float64(st.Attempts)
	return out, nil
}
