package main

// sizes sets how much work each workload and probe does. Tests run the
// same code at tinySizes.
type sizes struct {
	buildReps       int // merge-d7 artifact builds; setup_s is their median
	parseReps       int // factory8-d5 trace parses, microseconds each
	setupReps       int // service and fleet starts, about a millisecond each
	minReqs         int // fewest requests in a timed phase: p75 needs 40
	sampleChecks    int // misses or campaigns checked against a direct run
	mergeShots      int // shots per merge-d7 request: two 4096-shot shards
	factoryRuns     int // fewest cold factory8-d5 runs in a timed phase
	factoryPolicies int // leading entries of factoryRefs to simulate
	factoryShots    int // shots per merge pair (the CLI default is 4096)
	serviceShots    int // shots per service-mixed miss
	fleetShots      int // shots per campaign point
	probeReps       int // repetitions of each merge-d7 build step and two-worker request
	replayShots     int // merge-d7 single-threaded replay shots
	probeMisses     int // service probe misses; p90 needs 100
	probeHits       int // service probe hits
}

var fullSizes = sizes{
	buildReps: 9, parseReps: 200, setupReps: 25, minReqs: 40, sampleChecks: 16,
	mergeShots: 8192, factoryRuns: 3, factoryPolicies: 6, factoryShots: 4096,
	serviceShots: 2048, fleetShots: 1024,
	probeReps: 3, replayShots: 16384, probeMisses: 100, probeHits: 200,
}

// probe measures the per-layer metrics of one workload's configuration.
type probe struct {
	workload string
	run      func(e *env) (map[string]float64, error)
}

// probes run in every traced run, whichever workload it names, so that
// each traced run prints every per-layer metric.
var probes = []probe{
	{"merge-d7", probeMerge},
	{"factory8-d5", probeFactory},
	{"service-mixed", probeService},
	{"fleet-campaign", probeFleet},
}

// layerMetric is one per-layer metric of BENCHMARK.json, with the
// end-to-end metrics it should move, each as "metric@workload".
type layerMetric struct {
	name, unit, better string
	moves              []string
}

var layerMetrics = []layerMetric{
	// merge-d7 build steps, replay and parallel run.
	{"surface.build_ms", "ms", "lower", []string{"setup_s@merge-d7"}},
	{"dem.extract_ms", "ms", "lower", []string{"setup_s@merge-d7", "shots_per_s@factory8-d5"}},
	{"decoder.graph_ms", "ms", "lower", []string{"setup_s@merge-d7"}},
	{"frame.compile_ms", "ms", "lower", []string{"setup_s@merge-d7"}},
	{"decoder.predecoder_build_ms", "ms", "lower", []string{"setup_s@merge-d7", "shots_per_s@factory8-d5"}},
	{"frame.sample_ns_per_shot", "ns", "lower", []string{"shots_per_s@merge-d7"}},
	{"frame.extract_ns_per_shot", "ns", "lower", []string{"shots_per_s@merge-d7"}},
	{"decoder.decode_ns_per_shot", "ns", "lower", []string{"shots_per_s@merge-d7"}},
	{"decoder.predecoder_hit_frac", "ratio", "higher", []string{"shots_per_s@merge-d7"}},
	{"frame.defects_per_shot", "count", "lower", []string{"shots_per_s@merge-d7"}},
	{"mc.parallel_eff", "ratio", "higher", []string{"shots_per_s@merge-d7"}},
	// factory8-d5 cold and warm runs.
	{"sweep.cache_builds", "count", "lower", []string{"shots_per_s@factory8-d5"}},
	{"sweep.cache_hits", "count", "higher", []string{"shots_per_s@factory8-d5"}},
	{"trace.build_s", "s", "lower", []string{"shots_per_s@factory8-d5"}},
	{"trace.warm_s", "s", "lower", []string{"shots_per_s@factory8-d5"}},
	// service-mixed: hits move p50, misses p75.
	{"service.submit_ms", "ms", "lower", []string{"p50_ms@service-mixed"}},
	{"service.result_ms", "ms", "lower", []string{"p50_ms@service-mixed"}},
	{"service.store_get_ms", "ms", "lower", []string{"p50_ms@service-mixed"}},
	{"service.hit_p50_ms", "ms", "lower", []string{"p50_ms@service-mixed"}},
	{"service.hit_p90_ms", "ms", "lower", []string{"p50_ms@service-mixed"}},
	{"service.watch_ms", "ms", "lower", []string{"p75_ms@service-mixed"}},
	{"sweep.execute_ms", "ms", "lower", []string{"p75_ms@service-mixed"}},
	{"service.overhead_ms", "ms", "lower", []string{"p75_ms@service-mixed"}},
	{"service.miss_p50_ms", "ms", "lower", []string{"p75_ms@service-mixed"}},
	{"service.miss_p90_ms", "ms", "lower", []string{"p75_ms@service-mixed"}},
	{"service.store_puts", "count", "lower", []string{"p75_ms@service-mixed"}},
	{"service.store_hits", "count", "higher", []string{"p50_ms@service-mixed"}},
	{"service.build_misses", "count", "lower", []string{"p75_ms@service-mixed"}},
	{"service.attempts", "count", "lower", []string{"p75_ms@service-mixed"}},
	// fleet-campaign: one larger campaign against sweep.Collect.
	{"service.campaign_attempts", "count", "lower", []string{"shots_per_s@fleet-campaign"}},
	{"service.campaign_requeues", "count", "lower", []string{"shots_per_s@fleet-campaign"}},
	{"service.campaign_steals", "count", "lower", []string{"shots_per_s@fleet-campaign"}},
	{"worker.completed", "count", "higher", []string{"shots_per_s@fleet-campaign"}},
	{"worker.abandoned", "count", "lower", []string{"shots_per_s@fleet-campaign"}},
	{"sweep.collect_s", "s", "lower", []string{"shots_per_s@fleet-campaign"}},
	{"worker.overhead_frac", "ratio", "lower", []string{"shots_per_s@fleet-campaign"}},
}
