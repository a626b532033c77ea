package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"latticesim/internal/obs"
	"latticesim/internal/sweep"
	"latticesim/internal/trace"
)

// execute runs one attempt of a resolved job through the batch layer
// and returns the canonical result bytes that go into the store.
// Everything here is deterministic: volatile fields (wall times) are
// zeroed or absent, so two executions of the same resolved spec produce
// identical bytes — which is what makes crash-safe retries (and the
// integrity cross-checks on late completions) sound. ctx is the
// attempt's context: cancellation and timeouts are observed at shard
// boundaries (sweeps) and merge boundaries (traces), losing work but
// never changing surviving results. Progress flows through
// Server.touch, which fences stale attempts and doubles as the lease
// heartbeat.
func (s *Server) execute(ctx context.Context, j *job, att int) ([]byte, error) {
	s.opts.Hooks.beforeExec(ctx, j.snapshot().ID, att)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return executeResolved(ctx, s.opts.Cache, j.res, s.opts.MCWorkers, func(p Progress) {
		s.touch(j, att, p)
	}, s.met.reg)
}

// Failure reasons RunAttempt classifies an attempt's error with, and a
// node reports on a lease's "fail". Error and panic failures are retried
// and recorded in JobStatus.Failures; a timeout ends the job.
const (
	ReasonError   = "error"
	ReasonPanic   = "panic"
	ReasonTimeout = "timeout"
)

// errAttemptTimeout is the cancellation cause of an attempt that
// exceeded its wall-time bound.
var errAttemptTimeout = errors.New("attempt exceeded its execution timeout")

// RunAttempt executes one attempt of a work unit: the single executor
// wrapper the coordinator's local pool and worker nodes
// (internal/worker) share. fn runs under ctx bounded by timeout
// (0 = unbounded), and a panic in it is recovered into an error, so a
// decoder bug or an injected fault costs the unit one attempt, never the
// process. On failure reason classifies err for the coordinator's
// outcome router: ReasonTimeout when the bound expired, else ReasonPanic
// when fn panicked, else ReasonError.
func RunAttempt(ctx context.Context, timeout time.Duration, fn func(context.Context) ([]byte, error)) (data []byte, reason string, err error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, timeout, errAttemptTimeout)
		defer cancel()
	}
	defer func() {
		if p := recover(); p != nil {
			data, reason, err = nil, ReasonPanic, fmt.Errorf("%v", p)
		}
		if err != nil && context.Cause(ctx) == errAttemptTimeout {
			reason = ReasonTimeout
		}
	}()
	data, err = fn(ctx)
	if err != nil {
		reason = ReasonError
	}
	return data, reason, err
}

// ExecuteSpec resolves a job spec and executes it locally — the entry
// point worker nodes (internal/worker) use to run leased units with the
// same executors, build-cache reuse and determinism contract the
// coordinator's own pool has. workers sizes the Monte Carlo pool (0 =
// GOMAXPROCS); onProgress (nil allowed) observes progress in the job's
// native unit and doubles as the caller's heartbeat trigger. Campaign
// specs are refused: campaigns are scheduled by the coordinator, only
// their batch children execute on nodes.
func ExecuteSpec(ctx context.Context, cache *sweep.BuildCache, spec JobSpec, workers int, onProgress func(Progress)) ([]byte, error) {
	return ExecuteSpecObserved(ctx, cache, spec, workers, onProgress, nil)
}

// ExecuteSpecObserved is ExecuteSpec with a metric registry: the
// Monte Carlo pipeline records shard-duration and predecoder series on
// it (nil disables instrumentation at zero cost — the hot path never
// checks more than one pointer per shard).
func ExecuteSpecObserved(ctx context.Context, cache *sweep.BuildCache, spec JobSpec, workers int, onProgress func(Progress), metrics *obs.Registry) ([]byte, error) {
	if spec.Type == "campaign" {
		return nil, fmt.Errorf("service: campaign jobs are scheduled by the coordinator, not executed directly")
	}
	r, err := spec.resolve()
	if err != nil {
		return nil, &SpecError{Err: err}
	}
	if cache == nil {
		cache = sweep.NewBuildCache()
	}
	return executeResolved(ctx, cache, r, workers, onProgress, metrics)
}

// executeResolved dispatches a resolved job to its executor. It is
// deliberately independent of *Server so the coordinator's local pool
// and remote worker nodes share one code path.
func executeResolved(ctx context.Context, cache *sweep.BuildCache, r *resolvedJob, workers int, onProgress func(Progress), metrics *obs.Registry) ([]byte, error) {
	if onProgress == nil {
		onProgress = func(Progress) {}
	}
	switch r.spec.Type {
	case "sweep":
		return executeSweep(ctx, cache, r, workers, onProgress, metrics)
	case "trace":
		return executeTrace(ctx, cache, r, workers, onProgress)
	case "batch":
		return executeBatch(ctx, cache, r, workers, onProgress, metrics)
	}
	return nil, fmt.Errorf("service: unresolvable job type %q", r.spec.Type)
}

// executeSweep runs the job's single campaign point via the shared
// build cache, streaming shot-level progress, and canonicalizes the
// record (wall_ms zeroed — the only nondeterministic field) so
// re-submissions serve bit-identical bytes.
func executeSweep(ctx context.Context, cache *sweep.BuildCache, r *resolvedJob, workers int, onProgress func(Progress), metrics *obs.Registry) ([]byte, error) {
	cfg := r.scfg
	cfg.Workers = workers
	cfg.Ctx = ctx
	cfg.Metrics = metrics
	cfg.ShotProgress = func(done, total int) {
		onProgress(Progress{Done: done, Total: total, Unit: "shots"})
	}
	rec, err := sweep.ExecutePoint(cache, r.pt, cfg)
	if err != nil {
		return nil, err
	}
	return rec.CanonicalJSON()
}

// executeBatch runs the batch's points sequentially in listed order
// (the canonical grid order its campaign cut it from) and concatenates
// their canonical record lines. Progress counts whole points; inner
// shot progress is forwarded at the same point count so lease
// heartbeats keep flowing through a long point.
func executeBatch(ctx context.Context, cache *sweep.BuildCache, r *resolvedJob, workers int, onProgress func(Progress), metrics *obs.Registry) ([]byte, error) {
	var out []byte
	n := len(r.units)
	for i, u := range r.units {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		done := i
		line, err := executeSweep(ctx, cache, u, workers, func(Progress) {
			onProgress(Progress{Done: done, Total: n, Unit: "points"})
		}, metrics)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		out = append(out, line...)
		out = append(out, '\n')
		onProgress(Progress{Done: i + 1, Total: n, Unit: "points"})
	}
	return out, nil
}

// executeTrace simulates the job's program under each policy in
// request order, sharing the build cache, and reports progress in
// merge events summed across policies. The assembled ResultSet
// deliberately carries no Source label: stored bytes must be a pure
// function of the content address, and the source (a file name, a
// workload label) is submission metadata, not physics.
func executeTrace(ctx context.Context, cache *sweep.BuildCache, r *resolvedJob, workers int, onProgress func(Progress)) ([]byte, error) {
	cfg := r.tcfg
	cfg.Workers = workers
	cfg.Cache = cache
	cfg.Ctx = ctx
	prog, pols := r.prog, r.pols
	perPolicy := prog.Merges()
	total := perPolicy * len(pols)
	results := make([]*trace.Result, 0, len(pols))
	for i, pol := range pols {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		offset := i * perPolicy
		cfg.Progress = func(done, _ int) {
			onProgress(Progress{Done: offset + done, Total: total, Unit: "merges"})
		}
		res, err := trace.Simulate(prog, pol, cfg)
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", pol, err)
		}
		results = append(results, res)
	}
	rs := trace.NewResultSet(prog, cfg, "", results)
	return json.Marshal(rs)
}
