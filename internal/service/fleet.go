package service

import (
	"errors"
	"fmt"
	"time"
)

// WorkerLocal is the JobStatus.Worker attribution for attempts executed
// by the coordinator's own pool, distinguishing them from registered
// remote nodes (whose IDs are "w001", "w002", ...).
const WorkerLocal = "local"

// ErrUnknownWorker is returned by LeaseWork for an unregistered (or
// forgotten) worker ID; the HTTP layer maps it to 404 so the node knows
// to re-register — e.g. after the coordinator restarted.
var ErrUnknownWorker = errors.New("service: unknown worker")

// WorkerInfo is the coordinator's public record of a registered worker
// node, returned by POST /v1/workers and listed by GET /v1/workers.
type WorkerInfo struct {
	// ID is the coordinator-assigned handle ("w001", ...) the node uses
	// on every lease call; it is also the JobStatus.Worker attribution
	// for attempts the node executes.
	ID string `json:"id"`
	// Name is the node's self-reported label (host name, pod name) —
	// display metadata, not required to be unique.
	Name string `json:"name,omitempty"`
	// RegisteredMs / LastSeenMs are Unix-millisecond bookkeeping; no
	// determinism guarantee, like every timing field in the repo.
	RegisteredMs int64 `json:"registered_ms"`
	LastSeenMs   int64 `json:"last_seen_ms"`
	// Leased counts work units ever granted to the node (steals
	// included); Completed and Failed count the outcomes it reported.
	Leased    int `json:"leased"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
}

// workerNode is the server-side registration record. Guarded by s.mu.
type workerNode struct {
	info WorkerInfo
}

// remoteLease ties a granted lease to the job attempt it fences.
// Immutable after creation; the map holding it is guarded by s.mu.
type remoteLease struct {
	id      string
	j       *job
	att     int       // the fencing token minted at grant time
	wkr     string    // worker ID the unit was leased to
	granted time.Time // grant instant (span duration bookkeeping)
}

// LeaseGrant is the coordinator's answer to a successful lease request:
// one work unit, its fencing token, and the heartbeat contract.
type LeaseGrant struct {
	// LeaseID names this lease on subsequent POST /v1/leases/{id} calls.
	LeaseID string `json:"lease_id"`
	// JobID / Key identify the unit; Spec is its full normalized spec,
	// executable verbatim via ExecuteSpec.
	JobID string  `json:"job_id"`
	Key   string  `json:"key"`
	Spec  JobSpec `json:"spec"`
	// Attempt is the fencing token: reports from an older attempt of the
	// same job are acknowledged Valid=false and (when they carry result
	// bytes) integrity-checked rather than applied.
	Attempt int `json:"attempt"`
	// LeaseMs is the heartbeat deadline: the worker must report
	// (heartbeat, progress, or completion) within this many milliseconds
	// of every previous report or the watchdog reclaims the unit.
	LeaseMs int64 `json:"lease_ms"`
	// Stolen marks a tail work-steal: the unit is (nominally) still
	// running elsewhere and this node is racing the straggler. Results
	// are unaffected — the loser's bytes are integrity-checked, not
	// stored twice.
	Stolen bool `json:"stolen,omitempty"`
	// TraceID is the job's trace ID, minted at submission. The HTTP
	// layer also carries it in the X-Latticesim-Trace response header;
	// workers stamp it on their unit span events so one grep reassembles
	// a campaign's full coordinator+fleet trace.
	TraceID string `json:"trace_id,omitempty"`
}

// LeaseUpdate is a worker's report on a leased unit: a bare heartbeat,
// a progress-carrying heartbeat, a completion with result bytes, or a
// failure with an error message.
type LeaseUpdate struct {
	// Event is "heartbeat", "complete" or "fail".
	Event string `json:"event"`
	// Progress optionally accompanies a heartbeat.
	Progress *Progress `json:"progress,omitempty"`
	// Result carries the unit's canonical result bytes on "complete".
	// (A []byte, not json.RawMessage: batch results are JSONL — multiple
	// JSON documents — so they wire-encode as base64.)
	Result []byte `json:"result,omitempty"`
	// Error carries the failure message on "fail".
	Error string `json:"error,omitempty"`
	// Reason classifies a "fail" the way RunAttempt does: ReasonError
	// (also when empty), ReasonPanic or ReasonTimeout. The coordinator
	// applies the same policy to every executor: a timeout is terminal,
	// a panic or error is retried.
	Reason string `json:"reason,omitempty"`
}

// LeaseAck answers a LeaseUpdate. Valid=false tells the worker its
// lease no longer owns the job — expired, stolen and finished
// elsewhere, canceled, or simply unknown — and it should abandon the
// unit (dropping any partial work) and lease fresh work instead.
type LeaseAck struct {
	Valid bool `json:"valid"`
}

// RegisterWorker registers a worker node under a fresh ID. Names are
// display metadata; re-registering (e.g. after losing the ID to a
// coordinator restart... which forgets all registrations) just creates
// a new record.
func (s *Server) RegisterWorker(name string) (WorkerInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return WorkerInfo{}, ErrClosed
	}
	s.nextWkr++
	now := time.Now().UnixMilli()
	info := WorkerInfo{
		ID:           fmt.Sprintf("w%03d", s.nextWkr),
		Name:         name,
		RegisteredMs: now,
		LastSeenMs:   now,
	}
	s.workers[info.ID] = &workerNode{info: info}
	return info, nil
}

// Workers lists every registered worker node in registration order.
func (s *Server) Workers() []WorkerInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WorkerInfo, 0, len(s.workers))
	for i := 1; i <= s.nextWkr; i++ {
		if w, ok := s.workers[fmt.Sprintf("w%03d", i)]; ok {
			out = append(out, w.info)
		}
	}
	return out
}

// LeaseWork grants one work unit to the worker: the oldest runnable
// queued job, or — when the queue is empty and stealing is enabled — a
// duplicate of the oldest straggling campaign-batch attempt (one whose
// lease was last renewed at least Options.StealAge ago, suggesting its
// holder is slow or silently dead). A steal mints a fresh attempt
// token, so whichever execution finishes second is fenced off and
// byte-compared against the store instead of applied. Returns (nil,
// nil) when there is nothing to lease.
func (s *Server) LeaseWork(workerID string) (*LeaseGrant, error) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	w, ok := s.workers[workerID]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownWorker, workerID)
	}
	w.info.LastSeenMs = now.UnixMilli()

	if j, att, _ := s.popRunnableLocked(workerID); j != nil {
		return s.grantLocked(w, j, att, false), nil
	}

	// Tail work-stealing: duplicate a straggling batch child.
	if s.opts.StealAge < 0 {
		return nil, nil
	}
	for _, id := range s.order {
		j := s.jobs[id]
		if !j.child {
			continue
		}
		j.mu.Lock()
		victim := j.status.Worker
		stale := j.status.State == StateRunning &&
			victim != workerID &&
			!now.Before(j.lease.Add(s.opts.StealAge-s.opts.Lease))
		j.mu.Unlock()
		if !stale {
			continue
		}
		if att, _, ok := s.beginAttemptLocked(j, workerID, true); ok {
			s.met.steals.Inc()
			s.log.Info("work_steal", "job", id, "worker", workerID, "victim", victim)
			return s.grantLocked(w, j, att, true), nil
		}
	}
	return nil, nil
}

// grantLocked mints the lease record for an attempt just begun. The
// grant's spec carries the attempt's effective timeout, so a node bounds
// its execution exactly as the local pool does. Caller holds s.mu.
func (s *Server) grantLocked(w *workerNode, j *job, att int, stolen bool) *LeaseGrant {
	s.nextLease++
	l := &remoteLease{
		id:      fmt.Sprintf("l%06d", s.nextLease),
		j:       j,
		att:     att,
		wkr:     w.info.ID,
		granted: time.Now(),
	}
	s.leases[l.id] = l
	w.info.Leased++
	s.met.leaseGrants.Inc()
	st := j.snapshot()
	s.startLeaseSpan(l, st)
	spec := j.res.spec
	spec.TimeoutMs = int64((s.attemptTimeout(j) + time.Millisecond - 1) / time.Millisecond)
	return &LeaseGrant{
		LeaseID: l.id,
		JobID:   st.ID,
		Key:     j.res.key,
		Spec:    spec,
		Attempt: att,
		LeaseMs: s.opts.Lease.Milliseconds(),
		Stolen:  stolen,
		TraceID: st.TraceID,
	}
}

// UpdateLease applies a worker's report on a leased unit. A malformed
// report (unknown event or reason) is an error; an unknown lease ID is
// not — the coordinator may have garbage-collected it, or restarted —
// the worker just learns Valid=false and moves on. Outcomes route
// through finishAttempt, exactly as local attempts do; what remains
// here is the lease record: retiring it, crediting the node, and
// closing its span. A superseded report's integrity mismatch names the
// reporting worker, so a nondeterministic (or corrupting) node is
// identifiable fleet-wide.
func (s *Server) UpdateLease(leaseID string, u LeaseUpdate) (LeaseAck, error) {
	switch u.Event {
	case "heartbeat", "complete", "fail":
	default:
		return LeaseAck{}, fmt.Errorf("service: unknown lease event %q", u.Event)
	}
	switch u.Reason {
	case "", ReasonError, ReasonPanic, ReasonTimeout:
	default:
		return LeaseAck{}, fmt.Errorf("service: unknown failure reason %q", u.Reason)
	}
	s.mu.Lock()
	l, ok := s.leases[leaseID]
	if !ok {
		s.mu.Unlock()
		return LeaseAck{}, nil
	}
	if w := s.workers[l.wkr]; w != nil {
		w.info.LastSeenMs = time.Now().UnixMilli()
	}
	s.mu.Unlock()

	j := l.j
	if u.Event == "heartbeat" {
		p := Progress{}
		if u.Progress != nil {
			p = *u.Progress
		}
		s.touch(j, l.att, p)
		st := j.snapshot()
		return LeaseAck{Valid: st.State == StateRunning && st.Attempt == l.att}, nil
	}

	s.resolveLease(leaseID)
	var err error
	if u.Event == "fail" {
		msg := u.Error
		if msg == "" {
			msg = "worker reported failure without a message"
		}
		err = errors.New(msg)
	}
	outcome := s.finishAttempt(j, l.att, l.wkr, u.Result, u.Reason, err)
	s.endLeaseSpan(l, outcome)
	if outcome == "superseded" {
		return LeaseAck{}, nil
	}
	// A store-side write error is not the worker's doing: its report
	// still counts as a completion on its record. An integrity mismatch
	// implicates the node.
	s.countOutcome(l.wkr, outcome == "complete" || outcome == "store_error")
	return LeaseAck{Valid: true}, nil
}

// resolveLease retires a lease record once its worker has reported a
// terminal outcome for it.
func (s *Server) resolveLease(leaseID string) {
	s.mu.Lock()
	delete(s.leases, leaseID)
	s.mu.Unlock()
}

// countOutcome tallies a completion or failure on the worker's record.
func (s *Server) countOutcome(workerID string, completed bool) {
	s.mu.Lock()
	if w, ok := s.workers[workerID]; ok {
		if completed {
			w.info.Completed++
		} else {
			w.info.Failed++
		}
	}
	s.mu.Unlock()
}
