package service

import (
	"encoding/json"
	"testing"
)

// FuzzJobSpecResolve hardens the submission grammar against hostile
// bodies: any JSON that decodes into a JobSpec must resolve (or be
// rejected with an error) without panicking, and ContentKey must agree
// with resolve. Seeds are the specs the service tests submit, valid and
// invalid.
func FuzzJobSpecResolve(f *testing.F) {
	adaptive := sweepSpec(1000, 8192, 7)
	adaptive.Sweep.TargetRCI = 0.3
	timed := sweepSpec(710, 128, 6)
	timed.TimeoutMs = 50
	seeds := []JobSpec{
		sweepSpec(1000, 512, 7), adaptive, timed, traceSpec(32, 3),
		{Type: "trace", Trace: &TraceJob{Workload: "random", Patches: 6, Merges: 9, Policies: []string{"Active"}}},
		{Type: "batch", Batch: &BatchJob{Points: []SweepJob{*sweepSpec(500, 64, 1).Sweep, *sweepSpec(1000, 64, 1).Sweep}}},
		{Type: "campaign", Campaign: &CampaignJob{Policies: "Passive,Active", TausNs: "500,1000", Shots: 96, Seed: 11, BatchPoints: 1}},
		{},
		{Type: "sweep", Sweep: &SweepJob{Policy: "Passive", D: 4}},
		{Type: "sweep", Sweep: &SweepJob{Policy: "Passive", P: 0.7}},
		{Type: "trace", Trace: &TraceJob{Policies: []string{"Passive"}, TraceText: "PATCH A\nMERGE A\n"}},
		{Type: "trace", Trace: &TraceJob{Policies: []string{"Passive"}, Workload: "bursty"}},
	}
	for _, spec := range seeds {
		data, err := json.Marshal(spec)
		if err != nil {
			f.Fatalf("marshal seed: %v", err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		r, err := spec.resolve()
		key, kerr := spec.ContentKey()
		if (err == nil) != (kerr == nil) {
			t.Fatalf("resolve error %v but ContentKey error %v", err, kerr)
		}
		if err == nil && key != r.key {
			t.Fatalf("ContentKey %s disagrees with resolve's %s", key, r.key)
		}
	})
}
