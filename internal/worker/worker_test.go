package worker

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"latticesim/internal/service"
	"latticesim/internal/sweep"
)

// The test campaign: 4 grid points (2 policies × 2 slacks) in batches
// of 1, small enough to run under -race in seconds but wide enough
// that three nodes genuinely share (and steal) work.
const (
	tcPolicies = "Passive,Active"
	tcTaus     = "500,1000"
	tcShots    = 96
	tcSeed     = 11
)

func testCampaign() service.CampaignJob {
	return service.CampaignJob{
		Policies: tcPolicies, TausNs: tcTaus,
		Shots: tcShots, Seed: tcSeed, BatchPoints: 1,
	}
}

// expectedAggregate computes the ground truth the distributed runs
// must reproduce byte for byte: the batch layer's canonical JSONL for
// the same grid, shots and seed — what `latticesim sweep -json` emits.
func expectedAggregate(t *testing.T) []byte {
	t.Helper()
	grid, err := sweep.ParseGridSpec(sweep.GridSpec{Policies: tcPolicies, TausNs: tcTaus})
	if err != nil {
		t.Fatalf("ParseGridSpec: %v", err)
	}
	recs, err := sweep.Collect(grid, sweep.Config{Shots: tcShots, Seed: tcSeed}, nil)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	var buf bytes.Buffer
	for _, rec := range recs {
		line, err := rec.CanonicalJSON()
		if err != nil {
			t.Fatalf("CanonicalJSON: %v", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// fleetScenario shapes one campaign run: nodes is the remote node
// count (0 = the coordinator's own in-process pool executes), kill
// makes the first node die mid-unit while holding a lease.
type fleetScenario struct {
	nodes int
	kill  bool
}

// runCampaignScenario runs the test campaign under one fleet shape and
// returns the aggregate bytes, asserting completion and clean
// integrity counters along the way.
func runCampaignScenario(t *testing.T, sc fleetScenario) []byte {
	t.Helper()
	opts := service.Options{Workers: -1, MCWorkers: 1, Lease: 250 * time.Millisecond}
	if sc.nodes == 0 {
		opts.Workers = 1
	}
	srv, err := service.New(opts)
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	cache := sweep.NewBuildCache()
	for i := 0; i < sc.nodes; i++ {
		nodeCtx, nodeCancel := context.WithCancel(ctx)
		defer nodeCancel()
		wopts := Options{
			Coordinator: hs.URL, Name: fmt.Sprintf("node-%d", i),
			MCWorkers: 1, Poll: 10 * time.Millisecond, Cache: cache,
		}
		if sc.kill && i == 0 {
			// The doomed node: on its first lease it signals the test,
			// then hangs without heartbeating until its context is
			// canceled — exactly what a killed process looks like to the
			// coordinator, which must re-lease (or steal) the unit.
			leased := make(chan struct{})
			var once sync.Once
			wopts.BeforeExecute = func(hctx context.Context, g *service.LeaseGrant) error {
				once.Do(func() { close(leased) })
				<-hctx.Done()
				return hctx.Err()
			}
			go func() {
				select {
				case <-leased:
					nodeCancel()
				case <-ctx.Done():
				}
			}()
		}
		w, err := New(wopts)
		if err != nil {
			t.Fatalf("worker.New: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(nodeCtx)
		}()
	}

	client := service.NewClient(hs.URL)
	st, err := client.SubmitCampaign(ctx, testCampaign())
	if err != nil {
		t.Fatalf("SubmitCampaign: %v", err)
	}
	if !st.Terminal() {
		if st, err = client.Watch(ctx, st.ID, nil); err != nil {
			t.Fatalf("Watch: %v", err)
		}
	}
	if st.State != service.StateDone {
		t.Fatalf("campaign ended %s (%s), want done", st.State, st.Error)
	}
	if st.Progress.Done != 4 || st.Progress.Total != 4 || st.Progress.Unit != "points" {
		t.Fatalf("campaign progress = %+v, want 4/4 points", st.Progress)
	}

	cs, err := client.Campaign(ctx, st.ID)
	if err != nil {
		t.Fatalf("Campaign: %v", err)
	}
	if len(cs.Batches) != 4 {
		t.Fatalf("campaign has %d batches, want 4", len(cs.Batches))
	}
	for _, b := range cs.Batches {
		if b.State != service.StateDone {
			t.Fatalf("batch %s ended %s (%s), want done", b.ID, b.State, b.Error)
		}
	}

	data, err := client.Result(ctx, st.Key)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats.IntegrityFailures != 0 {
		t.Fatalf("integrity_failures = %d, want 0", stats.IntegrityFailures)
	}

	cancel()
	wg.Wait()
	return data
}

// TestCampaignFleetDeterminism is the fabric's core guarantee: the
// same campaign aggregated by the coordinator's own pool, by a fleet
// of three remote nodes, and by a fleet that loses a node mid-run
// produces byte-identical results — all equal to what the batch layer
// (`latticesim sweep -json`) computes directly.
func TestCampaignFleetDeterminism(t *testing.T) {
	want := expectedAggregate(t)

	local := runCampaignScenario(t, fleetScenario{nodes: 0})
	if !bytes.Equal(local, want) {
		t.Fatalf("in-process campaign differs from direct sweep:\ngot:  %q\nwant: %q", local, want)
	}

	fleet := runCampaignScenario(t, fleetScenario{nodes: 3})
	if !bytes.Equal(fleet, want) {
		t.Fatalf("3-node campaign differs from direct sweep:\ngot:  %q\nwant: %q", fleet, want)
	}

	chaos := runCampaignScenario(t, fleetScenario{nodes: 3, kill: true})
	if !bytes.Equal(chaos, want) {
		t.Fatalf("3-node campaign with a killed node differs from direct sweep:\ngot:  %q\nwant: %q", chaos, want)
	}
}

// TestWorkerStoreFastPath checks a node short-circuits a leased unit
// whose result is already stored (the losing side of a steal race)
// instead of recomputing it.
func TestWorkerStoreFastPath(t *testing.T) {
	srv, err := service.New(service.Options{Workers: -1, MCWorkers: 1})
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	spec := service.JobSpec{Type: "sweep", Sweep: &service.SweepJob{
		Policy: "Passive", TauNs: 1000, Shots: 64, Seed: 5,
	}}
	// Precompute the result and plant it in the store under the job's
	// key, then submit: the job coalesces before the store check only
	// for in-flight keys, so this submission still queues... unless the
	// store already has it. Plant *after* submission to exercise the
	// worker-side fast path rather than the coordinator's.
	st, err := srv.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	data, err := service.ExecuteSpec(ctx, nil, spec, 1, nil)
	if err != nil {
		t.Fatalf("ExecuteSpec: %v", err)
	}
	if err := srv.Store().Put(st.Key, data); err != nil {
		t.Fatalf("Put: %v", err)
	}

	executed := false
	w, err := New(Options{
		Coordinator: hs.URL, MCWorkers: 1, Poll: 10 * time.Millisecond,
		Logf: t.Logf,
		BeforeExecute: func(context.Context, *service.LeaseGrant) error {
			executed = true
			return nil
		},
	})
	if err != nil {
		t.Fatalf("worker.New: %v", err)
	}
	// BeforeExecute runs before the fast path, so it fires either way;
	// what must not happen is a store mismatch or a recompute changing
	// the outcome. Watch the job to completion and check the counters.
	wctx, wcancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(wctx)
	}()

	client := service.NewClient(hs.URL)
	final, err := client.Watch(ctx, st.ID, nil)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	// The job reaches done on the coordinator before the worker's report
	// round-trip finishes; wait for the worker's own counter before
	// shutting it down so the stats assertion is deterministic.
	for deadline := time.Now().Add(10 * time.Second); w.Stats().Completed == 0; {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	wcancel()
	<-done
	if final.State != service.StateDone {
		t.Fatalf("job ended %s (%s), want done", final.State, final.Error)
	}
	got, err := client.Result(ctx, final.Key)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("result differs after fast path (err %v)", err)
	}
	if !executed {
		t.Fatal("BeforeExecute hook never ran — worker never leased the unit")
	}
	ws := w.Stats()
	if ws.Completed != 1 || ws.Failed != 0 {
		t.Fatalf("worker stats = %+v, want exactly one completion", ws)
	}
	stats, _ := client.Stats(ctx)
	if stats.IntegrityFailures != 0 {
		t.Fatalf("integrity_failures = %d, want 0", stats.IntegrityFailures)
	}
}

// longSweep is a sweep far longer than any timeout below, so only the
// attempt's wall-time bound can end it early.
func longSweep(timeoutMs int64) service.JobSpec {
	return service.JobSpec{Type: "sweep", TimeoutMs: timeoutMs, Sweep: &service.SweepJob{
		Policy: "Passive", TauNs: 1000, Shots: 2_000_000, Seed: 9,
	}}
}

// runToTerminal submits spec to a coordinator with opts — executed by
// one remote node when remote is set, else by the local pool — and
// returns the job's terminal status.
func runToTerminal(t *testing.T, opts service.Options, spec service.JobSpec, remote bool) service.JobStatus {
	t.Helper()
	opts.MCWorkers = 1
	if remote {
		opts.Workers = -1
	}
	srv, err := service.New(opts)
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if remote {
		w, err := New(Options{Coordinator: hs.URL, MCWorkers: 1, Poll: 10 * time.Millisecond})
		if err != nil {
			t.Fatalf("worker.New: %v", err)
		}
		done := make(chan struct{})
		defer func() {
			cancel()
			<-done
		}()
		go func() {
			defer close(done)
			_ = w.Run(ctx)
		}()
	}
	st, err := srv.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	fin, ok, err := srv.Watch(ctx, st.ID, nil)
	if !ok || err != nil {
		t.Fatalf("Watch(%s): ok=%v err=%v (state %s)", st.ID, ok, err, fin.State)
	}
	return fin
}

// TestExecutorTimeoutParity: the local pool and a remote node bound an
// attempt identically — a spec timeout, or the server's default when
// the spec sets none, ends the job failed/timeout after exactly one
// attempt on either executor.
func TestExecutorTimeoutParity(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   service.Options
		spec   service.JobSpec
		remote bool
	}{
		{"local/spec", service.Options{}, longSweep(50), false},
		{"remote/spec", service.Options{}, longSweep(50), true},
		{"local/default", service.Options{JobTimeout: 50 * time.Millisecond}, longSweep(0), false},
		{"remote/default", service.Options{JobTimeout: 50 * time.Millisecond}, longSweep(0), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := runToTerminal(t, tc.opts, tc.spec, tc.remote)
			if st.State != service.StateFailed || st.StopReason != service.StopReasonTimeout {
				t.Fatalf("state/stop = %s/%s (%s), want failed/timeout", st.State, st.StopReason, st.Error)
			}
			if st.Attempt != 1 || len(st.Failures) != 0 {
				t.Fatalf("attempt %d, failures %+v; want one attempt and no retries", st.Attempt, st.Failures)
			}
			if wantLocal := !tc.remote; (st.Worker == service.WorkerLocal) != wantLocal {
				t.Fatalf("worker = %q, want local=%v", st.Worker, wantLocal)
			}
		})
	}
}
