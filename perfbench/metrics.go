package main

// metricDef names one reported metric. The two lists below are the
// benchmark's contract: BENCHMARK.json at the repository root lists the
// same names and units (TestBenchmarkJSONMatchesMetrics keeps them in
// step), untraced runs print every endToEnd metric, traced runs every
// perLayer one.
type metricDef struct{ name, unit string }

// endToEnd are the numbers a user of the deployment sees. Each workload
// reports all of them; none can be 0 on a run that completed a request.
var endToEnd = []metricDef{
	{"setup_s", "s"},                      // median over the run's set-ups
	{"latency_p50_ms", "ms"},              // Infer / Query call to return
	{"latency_tail_ms", "ms"},             // highest percentile with ≥10 samples beyond
	{"throughput_rps", "req/s"},           // correct requests per timed second, all clients
	{"client_compute_ms_per_req", "ms"},   // median of wall minus time blocked in Recv
	{"up_bytes_per_req", "B"},             // client transport counters, session setup excluded
	{"down_bytes_per_req", "B"},           //
	{"session_open_p50_ms", "ms"},         // SetupSession / Setup call time
	{"key_upload_bytes_per_session", "B"}, // key-bundle bytes uploaded / sessions opened
	{"peak_rss_mb", "MB"},                 // VmHWM at the end of the workload
}

// perLayer are the traced run's numbers, one or more per module. A
// metric of a layer a workload does not run reads 0 there (the result
// file marks it "not applicable").
var perLayer = []metricDef{
	{"nn.encryptions_per_req", "count"},
	{"nn.decryptions_per_req", "count"},
	{"bfv.encrypt_seeded_ms", "ms"},
	{"bfv.decrypt_ms", "ms"},
	{"bfv.keygen_ms", "ms"},
	{"ckks.encrypt_ms", "ms"},
	{"ckks.decrypt_ms", "ms"},
	{"ckks.rotate_ms", "ms"},
	{"ckks.keygen_ms", "ms"},
	{"core.L0.conv_ms", "ms"},
	{"core.L3.conv_ms", "ms"},
	{"core.L6.fc_ms", "ms"},
	{"core.batch2_ms_per_item", "ms"},
	{"core.rotations_per_req", "count"},
	{"core.plain_mults_per_req", "count"},
	{"core.adds_per_req", "count"},
	{"protocol.frames_up_per_req", "count"},
	{"protocol.frames_down_per_req", "count"},
	{"protocol.ct_marshal_ms", "ms"},
	{"protocol.ct_unmarshal_ms", "ms"},
	{"protocol.keybundle_bytes", "B"},
	{"protocol.keybundle_marshal_ms", "ms"},
	{"protocol.keybundle_unmarshal_ms", "ms"},
	{"serve.server_ms_per_req", "ms"},
	{"serve.wait_ms_per_req", "ms"},
	{"serve.open_cached_ms", "ms"},
	{"serve.open_upload_ms", "ms"},
	{"serve.first_req_fresh_ms", "ms"},
	{"serve.first_req_cached_ms", "ms"},
	{"serve.keycache_hit_ratio", "ratio"},
	{"serve.keycache_evictions", "count"},
	{"serve.batch_coalesced_ratio", "ratio"},
	{"serve.batch_rounds", "count"},
	{"serve.plaincache_hit_ratio", "ratio"},
	{"serve.sessions_rejected", "count"},
	{"distance.server_ms_per_query", "ms"},
	{"distance.rotations_per_query", "count"},
	{"distance.ct_mults_per_query", "count"},
	{"distance.plain_mults_per_query", "count"},
	{"runtime.alloc_mb_per_req", "MB"},
	{"runtime.gc_pause_ms_per_req", "ms"},
	{"trace.overhead_p50_ms", "ms"},
}

// Value is one reported number with what it rests on.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind Value (requests, sessions,
	// calls or set-ups); 0 means the layer had nothing to measure.
	N    int    `json:"n"`
	Note string `json:"note,omitempty"`
	// Q1 and Q3 are the sample's quartiles, where it has several.
	Q1 *float64 `json:"q1,omitempty"`
	Q3 *float64 `json:"q3,omitempty"`
}

// sampleValue reports the median of xs with its quartiles.
func sampleValue(xs []float64, unit, note string) Value {
	v := Value{Value: Median(xs), Unit: unit, N: len(xs), Note: note}
	if q1, _, q3, ok := Quartiles(xs); ok {
		v.Q1, v.Q3 = &q1, &q3
	}
	return v
}
