package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"nitro/internal/online"
	"nitro/internal/server"
)

// benchSetup starts a daemon with one tuned function and returns a client.
func benchSetup(b *testing.B) (*Client, func()) {
	b.Helper()
	cfg := server.Config{
		Addr: "127.0.0.1:0",
		Registry: server.RegistryConfig{
			Tenants: []server.TenantConfig{{Name: "bench", Token: "tok"}},
			Workers: 1,
		},
	}
	d, err := server.NewDaemon(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Start(cfg); err != nil {
		b.Fatal(err)
	}
	c, err := New(Config{BaseURL: "http://" + d.Addr(), Token: "tok", Retries: -1})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	spec := server.FunctionSpec{Name: "bench-fn", Features: []string{"x"}, Variants: []string{"a", "b"}, Default: 0}
	if err := c.RegisterFunction(ctx, spec); err != nil {
		b.Fatal(err)
	}
	if _, err := c.PushObservations(ctx, "bench-fn", benchSamples(64)); err != nil {
		b.Fatal(err)
	}
	job, err := c.Tune(ctx, "bench-fn")
	if err != nil {
		b.Fatal(err)
	}
	for {
		st, err := c.Job(ctx, job)
		if err != nil {
			b.Fatal(err)
		}
		if st.State.Terminal() {
			if st.Error != "" {
				b.Fatalf("bench tune failed: %s", st.Error)
			}
			break
		}
	}
	return c, func() { d.Shutdown(context.Background()) }
}

func benchSamples(n int) []online.RemoteSample {
	out := make([]online.RemoteSample, n)
	for i := range out {
		x := float64(i % 10)
		times := []float64{1, 2}
		if x > 4.5 {
			times = []float64{2, 1}
		}
		out[i] = online.RemoteSample{Features: []float64{x}, Times: times, Predicted: 0}
	}
	return out
}

// BenchmarkPullModelCold measures a full artifact pull (body + decode +
// ETag verification) over a loopback HTTP connection.
func BenchmarkPullModelCold(b *testing.B) {
	c, stop := benchSetup(b)
	defer stop()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := c.PullModel(ctx, "bench-fn", 0, "")
		if err != nil || p.Model == nil {
			b.Fatalf("pull: %v", err)
		}
	}
}

// BenchmarkPullModelRevalidate measures the steady-state poll: an
// If-None-Match re-pull answered 304 with no body.
func BenchmarkPullModelRevalidate(b *testing.B) {
	c, stop := benchSetup(b)
	defer stop()
	ctx := context.Background()
	p, err := c.PullModel(ctx, "bench-fn", 0, "")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		again, err := c.PullModel(ctx, "bench-fn", 0, p.ETag)
		if err != nil || !again.NotModified {
			b.Fatalf("revalidate: %v %+v", err, again)
		}
	}
}

// BenchmarkPushObservations measures shipping a batch of labelled samples
// as a binary frame through validation, rate accounting, reservoir ingest
// and the fleet drift detector, per batch size.
func BenchmarkPushObservations(b *testing.B) {
	for _, batch := range []int{1, 32, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			c, stop := benchSetup(b)
			defer stop()
			ctx := context.Background()
			samples := benchSamples(batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.PushObservations(ctx, "bench-fn", samples); err != nil {
					b.Fatalf("push: %v", err)
				}
			}
		})
	}
}

// BenchmarkPushObservationsJSON is BenchmarkPushObservations for the JSON
// body older clients and curl send: the same batches, marshalled per push
// and posted over raw HTTP, with the response decoded as the client does.
func BenchmarkPushObservationsJSON(b *testing.B) {
	for _, batch := range []int{1, 32, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			c, stop := benchSetup(b)
			defer stop()
			url := c.cfg.BaseURL + "/api/v1/functions/bench-fn/observations"
			samples := benchSamples(batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body, err := json.Marshal(map[string]any{"samples": samples})
				if err != nil {
					b.Fatal(err)
				}
				req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				req.Header.Set("Authorization", "Bearer "+c.cfg.Token)
				req.Header.Set("Content-Type", "application/json")
				resp, err := c.cfg.HTTPClient.Do(req)
				if err != nil {
					b.Fatalf("push: %v", err)
				}
				var out struct {
					Drift online.FleetStats `json:"drift"`
				}
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusAccepted {
					b.Fatalf("push: status %d, %v", resp.StatusCode, err)
				}
			}
		})
	}
}
