package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"nitro/internal/obs"
)

// TestAdaptStatsJSONGolden pins the wire form of a populated AdaptStats:
// snake_case keys in declaration order, and a lossless round trip.
func TestAdaptStatsJSONGolden(t *testing.T) {
	st := AdaptStats{Calls: 4800, Sampled: 1200, Explored: 300, ExploreFailures: 2, ExploreSeconds: 0.0125,
		Mismatches: 91, Windows: 12, LastMismatchRate: 0.44, LastRegret: 0.3125, Drifts: 1, Retrains: 2,
		RetrainsDeferred: 1, Swaps: 1, Rollbacks: 1, ModelVersion: 3, State: "drifting", Paused: true}
	want := `{"calls":4800,"sampled":1200,"explored":300,"explore_failures":2,"explore_seconds":0.0125,` +
		`"mismatches":91,"windows":12,"last_mismatch_rate":0.44,"last_regret":0.3125,"drifts":1,"retrains":2,` +
		`"retrains_deferred":1,"swaps":1,"rollbacks":1,"model_version":3,"state":"drifting","paused":true}`
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != want {
		t.Errorf("AdaptStats JSON =\n  %s\nwant\n  %s", b, want)
	}
	var back AdaptStats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != st {
		t.Errorf("round trip: %+v != %+v", back, st)
	}
}

// TestCallStatsJSONGolden pins the wire form of a CallStats with latency
// digests (sorted map keys, latency omitted only when nil) and of the zero
// value, whose nil PerVariant encodes as null.
func TestCallStatsJSONGolden(t *testing.T) {
	st := CallStats{Calls: 10, PerVariant: map[string]int{"small": 7, "large": 3}, DefaultFallbacks: 1,
		TotalValue: 2.5, FeatureSeconds: 0.125, Panics: 1, Timeouts: 2, Fallbacks: 3, Quarantined: 1, Recoveries: 1,
		MemoHits: 4, CompiledHits: 3, ExactFallbacks: 2,
		Latency: map[string]obs.LatencySummary{
			"small": {Count: 7, Sum: 1.75, Mean: 0.25, Min: 0.125, Max: 0.5, P50: 0.25, P95: 0.5, P99: 0.5},
			"large": {Count: 3, Sum: 0.75, Mean: 0.25, Min: 0.25, Max: 0.25, P50: 0.25, P95: 0.25, P99: 0.25},
		}}
	cases := []struct {
		st   CallStats
		want string
	}{
		{st, `{"calls":10,"per_variant":{"large":3,"small":7},"default_fallbacks":1,"total_value":2.5,` +
			`"feature_seconds":0.125,"panics":1,"timeouts":2,"fallbacks":3,"quarantined":1,"recoveries":1,` +
			`"memo_hits":4,"compiled_hits":3,"exact_fallbacks":2,"latency":{` +
			`"large":{"count":3,"sum":0.75,"mean":0.25,"min":0.25,"max":0.25,"p50":0.25,"p95":0.25,"p99":0.25,"regret":0},` +
			`"small":{"count":7,"sum":1.75,"mean":0.25,"min":0.125,"max":0.5,"p50":0.25,"p95":0.5,"p99":0.5,"regret":0}}}`},
		{CallStats{}, `{"calls":0,"per_variant":null,"default_fallbacks":0,"total_value":0,"feature_seconds":0,` +
			`"panics":0,"timeouts":0,"fallbacks":0,"quarantined":0,"recoveries":0,"memo_hits":0,"compiled_hits":0,"exact_fallbacks":0}`},
	}
	for _, c := range cases {
		b, err := json.Marshal(c.st)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != c.want {
			t.Errorf("CallStats JSON =\n  %s\nwant\n  %s", b, c.want)
		}
		var back CallStats
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, c.st) {
			t.Errorf("round trip: %+v != %+v", back, c.st)
		}
	}
}
