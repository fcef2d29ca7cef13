// Package faultnet injects deterministic, seeded network faults into HTTP
// traffic. It is the wire-level counterpart of core.WrapFault: where the
// variant harness proves the dispatch runtime degrades gracefully when
// *code* misbehaves, faultnet proves the registry protocol degrades
// gracefully when the *network* misbehaves — dropped requests, injected
// latency, connections reset mid-body, 5xx bursts and full partitions.
//
// All randomness comes from one mutex-guarded seeded PCG stream, so a
// serial driver with a fixed seed replays the exact same fault sequence on
// every run. The registry client's chaos e2e
// (TestChaosKillRestartResumePromote) depends on this: it runs the whole
// kill-restart-resume lifecycle twice and diffs the transcripts byte for
// byte.
//
// Transport wraps an http.RoundTripper, the client side of the wire.
package faultnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the root cause of every fault the harness injects; use
// errors.Is to distinguish chaos from real infrastructure failures in tests.
var ErrInjected = errors.New("faultnet: injected network fault")

// ErrPartitioned marks requests refused because the transport is currently
// partitioned from the server.
var ErrPartitioned = fmt.Errorf("%w: network partition", ErrInjected)

// Policy configures the seeded fault mix. Rates are per-request
// probabilities checked in declaration order against a single uniform draw
// (like core.FaultConfig), so they are mutually exclusive and their sum
// must stay <= 1; the remainder of the probability mass passes the request
// through untouched.
type Policy struct {
	// Seed seeds the fault RNG; equal seeds replay equal fault sequences
	// under a serial driver.
	Seed int64
	// DropRate is the probability the request fails with a transport error
	// before reaching the server (a dropped packet / refused connection).
	DropRate float64
	// Rate5xx is the probability of a synthetic 503 burst: the server is
	// never contacted, and BurstLen-1 subsequent requests also 503.
	Rate5xx float64
	// BurstLen is the length of a 503 burst (default 1: isolated errors).
	BurstLen int
	// ResetRate is the probability the response body is severed partway
	// through the read (connection reset mid-transfer).
	ResetRate float64
	// DelayRate / Delay inject latency before forwarding (default 2ms).
	DelayRate float64
	Delay     time.Duration
}

// Stats counts what the harness actually injected, so chaos tests can
// assert the run exercised real faults instead of passing vacuously.
type Stats struct {
	Requests    int64
	Drops       int64
	Faults5xx   int64
	Resets      int64
	Delays      int64
	Partitioned int64
	Passed      int64
}

func (s Stats) String() string {
	return fmt.Sprintf("requests=%d drops=%d 5xx=%d resets=%d delays=%d partitioned=%d passed=%d",
		s.Requests, s.Drops, s.Faults5xx, s.Resets, s.Delays, s.Partitioned, s.Passed)
}

// Transport is a chaos-injecting http.RoundTripper. Safe for concurrent
// use; under a serial driver the fault sequence is a pure function of the
// seed and the request count.
type Transport struct {
	inner http.RoundTripper
	pol   Policy

	mu        sync.Mutex
	rng       *rand.Rand
	burstLeft int

	partitioned atomic.Bool

	requests  atomic.Int64
	drops     atomic.Int64
	faults5xx atomic.Int64
	resets    atomic.Int64
	delays    atomic.Int64
	partDrops atomic.Int64
	passed    atomic.Int64
}

// New wraps inner (nil: http.DefaultTransport) with fault injection.
func New(inner http.RoundTripper, pol Policy) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	if pol.BurstLen < 1 {
		pol.BurstLen = 1
	}
	if pol.Delay <= 0 {
		pol.Delay = 2 * time.Millisecond
	}
	return &Transport{
		inner: inner,
		pol:   pol,
		rng:   rand.New(rand.NewPCG(uint64(pol.Seed), 0x66617578)), // "faux"
	}
}

// Partition toggles a full partition: while on, every request fails with
// ErrPartitioned without consuming RNG draws, so the post-heal fault
// sequence stays aligned with an unpartitioned replay.
func (t *Transport) Partition(on bool) { t.partitioned.Store(on) }

// Partitioned reports the current partition state.
func (t *Transport) Partitioned() bool { return t.partitioned.Load() }

// Stats snapshots the injected-fault counters.
func (t *Transport) Stats() Stats {
	return Stats{
		Requests:    t.requests.Load(),
		Drops:       t.drops.Load(),
		Faults5xx:   t.faults5xx.Load(),
		Resets:      t.resets.Load(),
		Delays:      t.delays.Load(),
		Partitioned: t.partDrops.Load(),
		Passed:      t.passed.Load(),
	}
}

// fault kinds decided under the RNG lock, acted on outside it.
type faultKind int

const (
	faultNone faultKind = iota
	faultDrop
	fault5xx
	faultReset
	faultDelay
)

// RoundTrip injects at most one fault per request, then (for pass-through
// kinds) forwards to the inner transport.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	if t.partitioned.Load() {
		t.partDrops.Add(1)
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: ErrPartitioned}
	}

	t.mu.Lock()
	kind := faultNone
	if t.burstLeft > 0 {
		t.burstLeft--
		kind = fault5xx
	} else {
		p := t.rng.Float64()
		pol := t.pol
		switch {
		case p < pol.DropRate:
			kind = faultDrop
		case p < pol.DropRate+pol.Rate5xx:
			kind = fault5xx
			t.burstLeft = pol.BurstLen - 1
		case p < pol.DropRate+pol.Rate5xx+pol.ResetRate:
			kind = faultReset
		case p < pol.DropRate+pol.Rate5xx+pol.ResetRate+pol.DelayRate:
			kind = faultDelay
		}
	}
	t.mu.Unlock()

	switch kind {
	case faultDrop:
		t.drops.Add(1)
		return nil, &net.OpError{Op: "write", Net: "tcp", Err: fmt.Errorf("%w: dropped request", ErrInjected)}
	case fault5xx:
		t.faults5xx.Add(1)
		return synth503(req), nil
	case faultDelay:
		t.delays.Add(1)
		time.Sleep(t.pol.Delay)
	}

	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if kind == faultReset {
		t.resets.Add(1)
		resp.Body = &resettingBody{inner: resp.Body, remaining: resetAfterBytes(resp.ContentLength)}
		return resp, nil
	}
	t.passed.Add(1)
	return resp, nil
}

// synth503 fabricates a Service Unavailable response without contacting
// the server.
func synth503(req *http.Request) *http.Response {
	h := http.Header{}
	h.Set("Content-Type", "application/json; charset=utf-8")
	body := `{"error":"faultnet: injected 503 burst"}`
	return &http.Response{
		Status:        "503 Service Unavailable",
		StatusCode:    http.StatusServiceUnavailable,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(bytes.NewReader([]byte(body))),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// resetAfterBytes picks how much of a body survives before the injected
// reset: half of a known Content-Length, else a small fixed prefix.
func resetAfterBytes(contentLength int64) int64 {
	if contentLength > 1 {
		return contentLength / 2
	}
	return 64
}

// resettingBody serves a prefix of the real body, then fails the read.
type resettingBody struct {
	inner     io.ReadCloser
	remaining int64
}

func (b *resettingBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, fmt.Errorf("%w: connection reset mid-body", ErrInjected)
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.inner.Read(p)
	b.remaining -= int64(n)
	if err == io.EOF {
		// The real body ended before the cut point; deliver the reset anyway
		// so the caller sees a truncated transfer, not a clean EOF.
		return n, fmt.Errorf("%w: connection reset mid-body", ErrInjected)
	}
	return n, err
}

func (b *resettingBody) Close() error { return b.inner.Close() }
