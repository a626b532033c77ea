package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"time"

	"latticesim/internal/service"
	"latticesim/internal/sweep"
	"latticesim/internal/worker"
)

// fleet-campaign runs sweep campaigns on a coordinator-only server
// with two in-process worker nodes, each with its own build cache and a
// one-worker Monte Carlo pool, pulling leased batches over loopback
// HTTP. A request is one campaign, submit to aggregate fetched; every
// campaign of a run has its own seed, so none is answered from the
// store.
const (
	fleetNodes = 2
	fleetPoll  = 5 * time.Millisecond
)

// fleetGrid is the campaign grid: d=5, three policies × two slacks,
// split into batches of two points.
func fleetGrid(seed uint64, shots int) service.CampaignJob {
	return service.CampaignJob{
		Hardware: "IBM", Policies: "Passive,Active,Hybrid", Distances: "5",
		TausNs: "300,700", ErrorRates: "1e-3", Bases: "X",
		Shots: shots, Seed: seed, BatchPoints: 2,
	}
}

// fleetRig is a running coordinator with its nodes.
type fleetRig struct {
	srv    *service.Server
	hs     *httptest.Server
	client *service.Client
	nodes  []*worker.Worker
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// close stops the nodes, waits for them, then stops the coordinator.
func (r *fleetRig) close() {
	r.cancel()
	r.wg.Wait()
	r.hs.Close()
	r.srv.Close()
}

// startFleet starts the coordinator and its nodes and waits until every
// node has registered.
func startFleet(e *env) (*fleetRig, error) {
	srv, err := service.New(service.Options{Workers: -1})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(e.ctx)
	r := &fleetRig{srv: srv, hs: httptest.NewServer(srv.Handler()), cancel: cancel}
	r.client = service.NewClient(r.hs.URL)
	for i := 0; i < fleetNodes; i++ {
		w, err := worker.New(worker.Options{
			Coordinator: r.hs.URL, Name: fmt.Sprintf("node-%d", i),
			MCWorkers: 1, Poll: fleetPoll,
		})
		if err != nil {
			r.close()
			return nil, err
		}
		r.nodes = append(r.nodes, w)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			_ = w.Run(ctx) // returns ctx's error once the rig closes
		}()
	}
	for len(srv.Workers()) < fleetNodes {
		if err := e.ctx.Err(); err != nil {
			r.close()
			return nil, fmt.Errorf("waiting for %d nodes to register: %w", fleetNodes, err)
		}
		time.Sleep(time.Millisecond)
	}
	return r, nil
}

// runCampaign submits one campaign and returns its aggregate bytes.
func (r *fleetRig) runCampaign(ctx context.Context, cj service.CampaignJob) ([]byte, error) {
	st, err := r.client.SubmitCampaign(ctx, cj)
	if err != nil {
		return nil, err
	}
	if !st.Terminal() {
		if st, err = r.client.Watch(ctx, st.ID, nil); err != nil {
			return nil, err
		}
	}
	if st.State != service.StateDone {
		return nil, fmt.Errorf("campaign %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if st.CacheHit {
		return nil, fmt.Errorf("campaign %s was answered from the store", st.ID)
	}
	return r.client.Result(ctx, st.Key)
}

// collectJSONL runs the campaign's grid with sweep.Collect and renders
// the canonical JSONL the aggregate must equal byte for byte.
func collectJSONL(ctx context.Context, cj service.CampaignJob, cache *sweep.BuildCache) ([]byte, error) {
	g, err := sweep.ParseGridSpec(sweep.GridSpec{
		Hardware: cj.Hardware, Policies: cj.Policies, Distances: cj.Distances,
		TausNs: cj.TausNs, ErrorRates: cj.ErrorRates, Bases: cj.Bases,
	})
	if err != nil {
		return nil, err
	}
	recs, err := sweep.Collect(g, sweep.Config{Shots: cj.Shots, Seed: cj.Seed, Workers: busyThreads, Ctx: ctx}, cache)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for _, rec := range recs {
		line, err := rec.CanonicalJSON()
		if err != nil {
			return nil, err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// campaignShots sums the shots the aggregate's records ran.
func campaignShots(agg []byte) (int64, error) {
	var n int64
	dec := json.NewDecoder(bytes.NewReader(agg))
	for dec.More() {
		var rec sweep.Record
		if err := dec.Decode(&rec); err != nil {
			return 0, fmt.Errorf("campaign aggregate: %w", err)
		}
		n += int64(rec.ShotsGranted)
	}
	if n == 0 {
		return 0, errors.New("campaign aggregate ran no shots")
	}
	return n, nil
}

func runFleet(e *env) (outcome, error) {
	var out outcome
	var rig *fleetRig
	for r := 0; r < e.sz.setupReps; r++ {
		if rig != nil {
			rig.close()
		}
		d, err := timeSetup(func() (err error) {
			rig, err = startFleet(e)
			return err
		})
		if err != nil {
			return out, err
		}
		out.setup = append(out.setup, d)
	}
	defer rig.close()

	type done struct {
		cj  service.CampaignJob
		agg []byte
	}
	var runs []done
	var err error
	out.wall, err = timedLoop(e, e.sz.minReqs, func(i int) error {
		cj := fleetGrid(splitmix(e.seed, i)>>12, e.sz.fleetShots)
		sp := e.tr.start("service.campaign", nil)
		t0 := time.Now()
		agg, err := rig.runCampaign(e.ctx, cj)
		lat := time.Since(t0)
		sp.end()
		if !e.ck.op("fleet-campaign campaign", err) {
			return err
		}
		n, err := campaignShots(agg)
		if !e.ck.op("fleet-campaign aggregate", err) {
			return err
		}
		out.lat = append(out.lat, ms(lat))
		out.shots += n
		runs = append(runs, done{cj, agg})
		return nil
	})
	if err != nil {
		return out, err
	}
	st := rig.srv.Stats()
	e.ck.check(st.IntegrityFailures == 0, "fleet-campaign: integrity_failures = %d", st.IntegrityFailures)
	// Untimed: sampled aggregates against sweep.Collect.
	cache := sweep.NewBuildCache()
	for _, i := range sampled(len(runs), e.sz.sampleChecks) {
		want, err := collectJSONL(e.ctx, runs[i].cj, cache)
		if !e.ck.op("fleet-campaign collect", err) {
			return out, err
		}
		e.ck.check(bytes.Equal(runs[i].agg, want), "fleet-campaign campaign %d aggregate differs from sweep.Collect", i)
	}
	return out, nil
}

// probeFleet runs one larger campaign on a fresh fleet and the same
// grid with sweep.Collect on a fresh cache; the ratio of their walls is
// the fabric's overhead.
func probeFleet(e *env) (map[string]float64, error) {
	rig, err := startFleet(e)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	cj := fleetGrid(splitmix(e.seed, -3)>>12, e.sz.fleetShots)
	cj.TausNs = "100,300,500,700"
	sp := e.tr.start("service.campaign", nil)
	agg, err := rig.runCampaign(e.ctx, cj)
	wall := sp.end()
	if !e.ck.op("fleet probe campaign", err) {
		return nil, err
	}
	sp = e.tr.start("sweep.collect", nil)
	want, err := collectJSONL(e.ctx, cj, sweep.NewBuildCache())
	collect := sp.end()
	if !e.ck.op("fleet probe collect", err) {
		return nil, err
	}
	e.ck.check(bytes.Equal(agg, want), "fleet probe aggregate differs from sweep.Collect")
	st := rig.srv.Stats()
	e.ck.check(st.IntegrityFailures == 0, "fleet probe: integrity_failures = %d", st.IntegrityFailures)
	out := map[string]float64{
		"service.campaign_attempts": float64(st.Attempts),
		"service.campaign_requeues": float64(st.Requeues),
		"service.campaign_steals":   float64(st.Steals),
		"sweep.collect_s":           collect.Seconds(),
		"worker.overhead_frac":      wall.Seconds()/collect.Seconds() - 1,
	}
	// A node counts a unit once its report round trip returns, which can
	// be just after the coordinator marked the campaign done.
	for deadline := time.Now().Add(time.Second); nodeUnits(rig) < st.Attempts && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	for _, w := range rig.nodes {
		ws := w.Stats()
		out["worker.completed"] += float64(ws.Completed)
		out["worker.abandoned"] += float64(ws.Abandoned)
	}
	return out, nil
}

// nodeUnits is the number of units the rig's nodes have finished.
func nodeUnits(r *fleetRig) int {
	n := 0
	for _, w := range r.nodes {
		ws := w.Stats()
		n += ws.Completed + ws.Failed + ws.Abandoned
	}
	return n
}
