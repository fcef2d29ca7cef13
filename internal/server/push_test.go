package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"reflect"
	"testing"

	"nitro/internal/obs/trace"
	"nitro/internal/online"
)

// TestDriftTransitionLogNamesStates: a push that moves the fleet detector
// from healthy to drifting logs drift.transition with the states' names,
// not their int32 values converted to runes.
func TestDriftTransitionLogNamesStates(t *testing.T) {
	rec := trace.NewRecorder(64)
	r, err := NewRegistry(RegistryConfig{
		Tenants:           []TenantConfig{{Name: "acme", Token: "tok-acme"}},
		Drift:             online.Policy{Window: 5},
		MinRetrainSamples: 1000, // no auto-tune: the push stops at drifting
		Log:               trace.NewLog(trace.LogConfig{Writer: io.Discard, Recorder: rec}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	if err := r.RegisterFunction(ctx, "acme", testSpec()); err != nil {
		t.Fatal(err)
	}
	// Every sample predicts the slower variant: two fully mismatched windows.
	miss := make([]online.RemoteSample, 10)
	for i := range miss {
		miss[i] = online.RemoteSample{Features: []float64{float64(i)}, Times: []float64{1, 2}, Predicted: 1}
	}
	st, err := r.PushObservations(ctx, "acme", "sort", miss)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "drifting" {
		t.Fatalf("detector state after two bad windows = %q, want drifting", st.State)
	}
	var got []map[string]string
	for _, ev := range rec.Snapshot() {
		if ev.Name != "drift.transition" {
			continue
		}
		fields := map[string]string{}
		for _, f := range ev.Fields {
			fields[f.Key] = f.Value
		}
		got = append(got, fields)
	}
	want := []map[string]string{{"tenant": "acme", "fn": "sort", "from": "healthy", "to": "drifting"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("drift.transition events = %q, want %q", got, want)
	}
}

// TestPushObservationsRefusesNonFinite: an in-process push carrying NaN or
// ±Inf in a feature or a time is refused as invalid, whole, before any
// quota is charged, and leaves the function's status unchanged.
func TestPushObservationsRefusesNonFinite(t *testing.T) {
	r, err := NewRegistry(RegistryConfig{
		Tenants: []TenantConfig{{Name: "acme", Token: "tok-acme", Quotas: Quotas{SamplesPerSec: 1, SampleBurst: 2}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	if err := r.RegisterFunction(ctx, "acme", testSpec()); err != nil {
		t.Fatal(err)
	}
	ok := online.RemoteSample{Features: []float64{1}, Times: []float64{1, 2}, Predicted: 0}
	before, err := r.Status("acme", "sort")
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []online.RemoteSample{
		{Features: []float64{1}, Times: []float64{1, math.Inf(1)}, Predicted: 0},
		{Features: []float64{1}, Times: []float64{math.NaN(), 2}, Predicted: 0},
		{Features: []float64{math.Inf(-1)}, Times: []float64{1, 2}, Predicted: 0},
		{Features: []float64{math.NaN()}, Times: []float64{1, 2}, Predicted: -1},
	} {
		if _, err := r.PushObservations(ctx, "acme", "sort", []online.RemoteSample{ok, bad}); !errors.Is(err, ErrInvalid) {
			t.Fatalf("push with %v/%v: err = %v, want ErrInvalid", bad.Features, bad.Times, err)
		}
	}
	after, err := r.Status("acme", "sort")
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(before)
	b2, _ := json.Marshal(after)
	if string(b1) != string(b2) {
		t.Fatalf("refused pushes changed the status:\n%s\n%s", b1, b2)
	}
	// The two-sample burst is still whole: no refused batch was charged.
	if _, err := r.PushObservations(ctx, "acme", "sort", []online.RemoteSample{ok, ok}); err != nil {
		t.Fatalf("finite push after the refused ones: %v", err)
	}
}

// TestPushObservationsRefusesOutOfRangePredicted: a sample predicting a
// variant the function does not have, or anything below -1 (no model), is
// refused as invalid, whole, before any quota is charged: in process, and
// with a 400 on both the JSON and the frame route. The function's status
// stays unchanged.
func TestPushObservationsRefusesOutOfRangePredicted(t *testing.T) {
	d, hs := newTestDaemon(t, func(cfg *Config) {
		cfg.Registry.Tenants = []TenantConfig{{Name: "acme", Token: "tok-acme", Quotas: Quotas{SamplesPerSec: 1, SampleBurst: 2}}}
	})
	r := d.Registry()
	ctx := context.Background()
	if err := r.RegisterFunction(ctx, "acme", testSpec()); err != nil {
		t.Fatal(err)
	}
	ok := online.RemoteSample{Features: []float64{1}, Times: []float64{1, 2}, Predicted: -1}
	before, err := r.Status("acme", "sort")
	if err != nil {
		t.Fatal(err)
	}
	for _, predicted := range []int{2, 7, -2} {
		batch := []online.RemoteSample{ok, {Features: []float64{1}, Times: []float64{1, 2}, Predicted: predicted}}
		if _, err := r.PushObservations(ctx, "acme", "sort", batch); !errors.Is(err, ErrInvalid) {
			t.Fatalf("in-process push predicting %d: err = %v, want ErrInvalid", predicted, err)
		}
		body, err := json.Marshal(observationsBody{Samples: batch})
		if err != nil {
			t.Fatal(err)
		}
		mustStatus(t, req(t, hs, "POST", "/api/v1/functions/sort/observations", "tok-acme", body, nil), http.StatusBadRequest)
		frame, err := AppendSampleFrame(nil, batch)
		if err != nil {
			t.Fatal(err)
		}
		mustStatus(t, req(t, hs, "POST", "/api/v1/functions/sort/observations", "tok-acme", frame, frameHeaders), http.StatusBadRequest)
	}
	after, err := r.Status("acme", "sort")
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(before)
	b2, _ := json.Marshal(after)
	if string(b1) != string(b2) {
		t.Fatalf("refused pushes changed the status:\n%s\n%s", b1, b2)
	}
	// The two-sample burst is still whole: no refused batch was charged.
	ok.Predicted = 1
	if _, err := r.PushObservations(ctx, "acme", "sort", []online.RemoteSample{ok, ok}); err != nil {
		t.Fatalf("in-range push after the refused ones: %v", err)
	}
}
