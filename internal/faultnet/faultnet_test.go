package faultnet

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// okTransport is a fault-free inner transport returning a fixed body.
type okTransport struct{ body string }

func (t okTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode:    http.StatusOK,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{},
		Body:          io.NopCloser(strings.NewReader(t.body)),
		ContentLength: int64(len(t.body)),
		Request:       req,
	}, nil
}

func mustReq(t *testing.T) *http.Request {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, "http://chaos.invalid/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// outcome classifies one RoundTrip result for determinism comparison.
func outcome(t *testing.T, tr *Transport) string {
	t.Helper()
	resp, err := tr.RoundTrip(mustReq(t))
	if err != nil {
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("non-injected error from chaos transport: %v", err)
		}
		return "drop"
	}
	_, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		return "503"
	case rerr != nil:
		return "reset"
	default:
		return "pass"
	}
}

// TestSeededDeterminism: equal seeds replay the exact same fault sequence;
// a different seed diverges.
func TestSeededDeterminism(t *testing.T) {
	pol := Policy{Seed: 7, DropRate: 0.2, Rate5xx: 0.2, ResetRate: 0.15, DelayRate: 0.1,
		Delay: time.Microsecond}
	run := func(seed int64) []string {
		p := pol
		p.Seed = seed
		tr := New(okTransport{body: "hello, fleet"}, p)
		var out []string
		for i := 0; i < 60; i++ {
			out = append(out, outcome(t, tr))
		}
		return out
	}
	a, b, c := run(7), run(7), run(8)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical 60-request fault sequences")
	}
	// The mix must actually contain injected faults, or the harness is inert.
	kinds := map[string]bool{}
	for _, k := range a {
		kinds[k] = true
	}
	for _, want := range []string{"drop", "503", "reset", "pass"} {
		if !kinds[want] {
			t.Fatalf("60-request run at these rates never produced %q: %v", want, a)
		}
	}
}

// Test503Burst: a 5xx draw yields BurstLen consecutive 503s, none of which
// reaches the server.
func Test503Burst(t *testing.T) {
	tr := New(okTransport{body: "x"}, Policy{Seed: 1, Rate5xx: 1, BurstLen: 3})
	for i := 0; i < 6; i++ {
		resp, err := tr.RoundTrip(mustReq(t))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status %d, want 503", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if st := tr.Stats(); st.Faults5xx != 6 || st.Passed != 0 {
		t.Fatalf("stats %v, want six 503s and no pass-throughs", st)
	}
}

// TestResetSeversBodyMidRead: the read fails with ErrInjected after a
// partial transfer, never a clean EOF.
func TestResetSeversBodyMidRead(t *testing.T) {
	body := strings.Repeat("A", 1024)
	tr := New(okTransport{body: body}, Policy{Seed: 5, ResetRate: 1})
	resp, err := tr.RoundTrip(mustReq(t))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("read error %v, want injected reset", err)
	}
	if len(got) == 0 || len(got) >= len(body) {
		t.Fatalf("reset delivered %d of %d bytes, want a strict partial prefix", len(got), len(body))
	}
}

// TestPartition: while partitioned every request fails typed and consumes
// no RNG draws, so the post-heal sequence matches an unpartitioned replay.
func TestPartition(t *testing.T) {
	pol := Policy{Seed: 11, DropRate: 0.3, Rate5xx: 0.3}
	healthy := New(okTransport{body: "hello, fleet"}, pol)
	var want []string
	for i := 0; i < 20; i++ {
		want = append(want, outcome(t, healthy))
	}

	chaotic := New(okTransport{body: "hello, fleet"}, pol)
	chaotic.Partition(true)
	for i := 0; i < 17; i++ {
		_, err := chaotic.RoundTrip(mustReq(t))
		if !errors.Is(err, ErrPartitioned) || !errors.Is(err, ErrInjected) {
			t.Fatalf("partitioned request %d: err %v, want ErrPartitioned", i, err)
		}
	}
	if !chaotic.Partitioned() {
		t.Fatal("Partitioned() false while partitioned")
	}
	chaotic.Partition(false)
	var got []string
	for i := 0; i < 20; i++ {
		got = append(got, outcome(t, chaotic))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("post-heal sequence diverged from unpartitioned replay:\n%v\n%v", got, want)
	}
	if st := chaotic.Stats(); st.Partitioned != 17 {
		t.Fatalf("stats %v, want 17 partition drops", st)
	}
}
