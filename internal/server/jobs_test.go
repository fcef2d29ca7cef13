package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"nitro/internal/autotuner"
	"nitro/internal/online"
)

// TestForgottenJobNotFound: the tune queue retains a bounded number of
// finished jobs, so a long-lived daemon tuning one function over and over
// eventually forgets the first job. Registry.Job then answers for it
// exactly as for an id it never handed out, while the newest job reads done.
func TestForgottenJobNotFound(t *testing.T) {
	r, err := NewRegistry(RegistryConfig{Tenants: testTenants(), Workers: 1, MinRetrainSamples: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	if err := r.RegisterFunction(ctx, "acme", testSpec()); err != nil {
		t.Fatal(err)
	}
	samples := make([]online.RemoteSample, 10)
	for i := range samples {
		samples[i] = online.RemoteSample{Features: []float64{float64(i)}, Times: []float64{1, 2}, Predicted: -1}
		if i > 4 {
			samples[i].Times = []float64{2, 1}
		}
	}
	if _, err := r.PushObservations(ctx, "acme", "sort", samples); err != nil {
		t.Fatal(err)
	}
	tune := func() (string, autotuner.JobStatus) {
		id, err := r.Tune(ctx, "acme", "sort")
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(15 * time.Second)
		for {
			st, err := r.Job("acme", id)
			if err != nil {
				t.Fatalf("Job(%s) while it runs: %v", id, err)
			}
			if st.State.Terminal() {
				return id, st
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %q", id, st.State)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	first, _ := tune()
	const maxTunes = 5000
	var last autotuner.JobStatus
	for i := 0; ; i++ {
		if i == maxTunes {
			t.Fatalf("the first job is still retained after %d more tunes", maxTunes)
		}
		_, last = tune()
		if _, err := r.Job("acme", first); err != nil {
			_, unknown := r.Job("acme", "job-999999")
			if !errors.Is(err, ErrNotFound) || !errors.Is(unknown, ErrNotFound) {
				t.Fatalf("forgotten job: %v; unknown job: %v; want both ErrNotFound", err, unknown)
			}
			break
		}
	}
	if last.State != autotuner.JobDone {
		t.Fatalf("newest job = %+v, want done", last)
	}
	if _, err := r.Job("globex", last.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("another tenant's job: %v, want ErrNotFound", err)
	}
}
