package server

// Sample-frame tests: the codec round-trips bit for bit, decodes exactly
// what the JSON route decodes, and leaves the registry in the same state;
// every malformed frame is a 400 that ingests nothing and charges no quota.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"nitro/internal/online"
)

// sameSamples reports whether a and b hold the same samples bit for bit.
// A nil slice equals an empty one: JSON decodes a missing or null list as
// nil, a frame every list as a window of its value array.
func sameSamples(a, b []online.RemoteSample) bool {
	if len(a) != len(b) {
		return false
	}
	sameBits := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	for i := range a {
		if a[i].Predicted != b[i].Predicted || !sameBits(a[i].Features, b[i].Features) || !sameBits(a[i].Times, b[i].Times) {
			return false
		}
	}
	return true
}

func mustFrame(t testing.TB, samples []online.RemoteSample) []byte {
	t.Helper()
	data, err := AppendSampleFrame(nil, samples)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

var frameHeaders = map[string]string{"Content-Type": SampleFrameType}

// TestSampleFrameRoundTrip: edge values, empty lists and ragged batches
// decode to the same bits and re-encode to the same bytes, and appending
// to one decoded list cannot reach another.
func TestSampleFrameRoundTrip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	batch := []online.RemoteSample{
		{Features: []float64{negZero, 5e-324, math.MaxFloat64, -math.MaxFloat64}, Times: []float64{math.SmallestNonzeroFloat64, -2.2250738585072014e-308}, Predicted: -1},
		{Features: []float64{}, Times: nil, Predicted: math.MaxInt},
		{Features: nil, Times: []float64{1, 2, 3}, Predicted: math.MinInt},
		{Features: []float64{0.1}, Times: []float64{}, Predicted: 3},
	}
	data := mustFrame(t, batch)
	got, err := DecodeSampleFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSamples(got, batch) {
		t.Fatalf("decoded %+v, want %+v", got, batch)
	}
	if math.Float64bits(got[0].Features[0]) != math.Float64bits(negZero) {
		t.Fatal("-0 lost its sign")
	}
	if again := mustFrame(t, got); !bytes.Equal(again, data) {
		t.Fatal("re-encoding the decoded batch changed the bytes")
	}
	if want := 8 + 4*16 + 8*(6+0+3+1); len(data) != want {
		t.Fatalf("frame is %d bytes, want %d", len(data), want)
	}
	for _, s := range got {
		_ = append(s.Features, 42)
		_ = append(s.Times, 42)
	}
	if !sameSamples(got, batch) {
		t.Fatal("appending to one decoded list overwrote another")
	}
}

// randomBatch draws a ragged batch of finite values: random bit patterns
// (subnormals and extremes included), signed zeros and short decimals.
func randomBatch(rng *rand.Rand) []online.RemoteSample {
	value := func() float64 {
		switch rng.IntN(4) {
		case 0:
			return math.Copysign(0, float64(rng.IntN(2))-0.5)
		case 1:
			return float64(rng.IntN(2000)-1000) / 8
		}
		for {
			if x := math.Float64frombits(rng.Uint64()); !nonFinite(x) {
				return x
			}
		}
	}
	list := func() []float64 {
		if rng.IntN(8) == 0 {
			return nil
		}
		xs := make([]float64, rng.IntN(6))
		for i := range xs {
			xs[i] = value()
		}
		return xs
	}
	batch := make([]online.RemoteSample, 1+rng.IntN(12))
	for i := range batch {
		pred := rng.IntN(8) - 1
		if rng.IntN(6) == 0 {
			pred = int(rng.Int64()) - math.MaxInt/2
		}
		batch[i] = online.RemoteSample{Features: list(), Times: list(), Predicted: pred}
	}
	return batch
}

// TestSampleFrameMatchesJSON: for random finite batches the frame decodes
// to exactly the bits json.Unmarshal(json.Marshal(batch)) yields.
func TestSampleFrameMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 1))
	for trial := 0; trial < 500; trial++ {
		batch := randomBatch(rng)
		viaFrame, err := DecodeSampleFrame(mustFrame(t, batch))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		data, err := json.Marshal(observationsBody{Samples: batch})
		if err != nil {
			t.Fatal(err)
		}
		var viaJSON observationsBody
		if err := json.Unmarshal(data, &viaJSON); err != nil {
			t.Fatal(err)
		}
		if !sameSamples(viaFrame, viaJSON.Samples) || !sameSamples(viaFrame, batch) {
			t.Fatalf("trial %d: frame decoded %+v, JSON %+v", trial, viaFrame, viaJSON.Samples)
		}
	}
}

// TestFrameAndJSONPushesLeaveEqualStatus: the same batches pushed as JSON
// to one fresh registry and as frames to another leave equal Status.
func TestFrameAndJSONPushesLeaveEqualStatus(t *testing.T) {
	spec := FunctionSpec{Name: "sort", Features: []string{"n", "k"}, Variants: []string{"a", "b", "c"}, Default: 0}
	rng := rand.New(rand.NewPCG(7, 7))
	var batches [][]online.RemoteSample
	for b := 0; b < 4; b++ {
		batch := make([]online.RemoteSample, 10)
		for i := range batch {
			batch[i] = online.RemoteSample{
				Features:  []float64{rng.Float64() * 100, rng.NormFloat64()},
				Times:     []float64{rng.ExpFloat64(), rng.ExpFloat64(), rng.ExpFloat64()},
				Predicted: rng.IntN(4) - 1,
			}
		}
		batches = append(batches, batch)
	}
	var status [2]FunctionStatus
	for side, frame := range []bool{false, true} {
		d, hs := newTestDaemon(t, nil)
		mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-acme", specBody(t, spec), nil), http.StatusCreated)
		for _, batch := range batches {
			body, headers := []byte(nil), map[string]string(nil)
			if frame {
				body, headers = mustFrame(t, batch), frameHeaders
			} else {
				var err error
				if body, err = json.Marshal(observationsBody{Samples: batch}); err != nil {
					t.Fatal(err)
				}
			}
			mustStatus(t, req(t, hs, "POST", "/api/v1/functions/sort/observations", "tok-acme", body, headers), http.StatusAccepted)
		}
		st, err := d.Registry().Status("acme", "sort")
		if err != nil {
			t.Fatal(err)
		}
		status[side] = st
	}
	if status[0].Observations != 40 {
		t.Fatalf("JSON side counted %d observations, want 40", status[0].Observations)
	}
	if !reflect.DeepEqual(status[0], status[1]) {
		t.Fatalf("status after JSON pushes %+v, after frames %+v", status[0], status[1])
	}
}

// TestSampleFrameRejections: every malformed frame is a 400 that ingests
// nothing and charges no quota, and the media type is matched the way
// mime.ParseMediaType reads it.
func TestSampleFrameRejections(t *testing.T) {
	valid := []online.RemoteSample{{Features: []float64{1}, Times: []float64{1, 2}, Predicted: 0}}
	good := mustFrame(t, valid)
	header := func(n uint32) []byte {
		return binary.LittleEndian.AppendUint32([]byte(sampleFrameMagic), n)
	}
	record := func(nf, nt uint32, vals ...uint64) []byte {
		b := binary.LittleEndian.AppendUint32(nil, nf)
		b = binary.LittleEndian.AppendUint32(b, nt)
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	withValue := func(i int, x float64) []byte {
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint64(b[16+8*i:], math.Float64bits(x))
		return b
	}
	cases := []struct {
		name string
		body []byte
		want string
	}{
		{"empty body", nil, "not a sample frame"},
		{"short header", good[:6], "not a sample frame"},
		{"wrong magic", append([]byte("NSF2"), good[4:]...), "not a sample frame"},
		{"short body", good[:len(good)-1], "sample 0 claims 1x2 values past the end"},
		{"long body", append(bytes.Clone(good), 0), "1 bytes after the last sample"},
		{"count past the body", append(header(math.MaxUint32), 0, 0, 0, 0), "4294967295 samples cannot fit in 4 bytes"},
		{"second record missing", append(header(2), good[8:]...), "frame ends inside sample 1"},
		{"feature count past the body", append(header(1), record(math.MaxUint32, 0, 0)...), "past the end"},
		{"time count past the body", append(header(1), record(1, math.MaxUint32, 0, 0)...), "past the end"},
		{"NaN feature", withValue(0, math.NaN()), "feature 0 is NaN"},
		{"+Inf time", withValue(1, math.Inf(1)), "time 0 is +Inf"},
		{"-Inf time", withValue(2, math.Inf(-1)), "time 1 is -Inf"},
		{"empty batch", header(0), "empty sample batch"},
	}
	if strconv.IntSize == 32 {
		big := append(header(1), record(1, 2, math.Float64bits(1), math.Float64bits(1), math.Float64bits(2), 1<<40)...)
		cases = append(cases, struct {
			name string
			body []byte
			want string
		}{"predicted outside int", big, "overflows int"})
	}

	d, hs := newTestDaemon(t, func(cfg *Config) {
		cfg.Registry.Tenants = []TenantConfig{
			{Name: "acme", Token: "tok-acme", Quotas: Quotas{SamplesPerSec: 1, SampleBurst: 2}},
		}
		// A stopped clock: the bucket never refills during the test.
		cfg.Registry.Clock = func() time.Time { return time.Unix(1000, 0) }
	})
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-acme", specBody(t, testSpec()), nil), http.StatusCreated)
	obsPath := "/api/v1/functions/sort/observations"
	for _, tc := range cases {
		if _, err := DecodeSampleFrame(tc.body); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decode error %v, want one containing %q", tc.name, err, tc.want)
		}
		data := mustStatus(t, req(t, hs, "POST", obsPath, "tok-acme", tc.body, frameHeaders), http.StatusBadRequest)
		if !strings.Contains(string(data), tc.want) {
			t.Errorf("%s: response %s, want %q", tc.name, data, tc.want)
		}
	}
	// A frame under a JSON media type goes to the JSON decoder, and a JSON
	// body under the frame type to the frame decoder; both fail.
	mustStatus(t, req(t, hs, "POST", obsPath, "tok-acme", good, jsonContentType), http.StatusBadRequest)
	mustStatus(t, req(t, hs, "POST", obsPath, "tok-acme", observationsBatch(t, 1, 0), frameHeaders), http.StatusBadRequest)
	st, err := d.Registry().Status("acme", "sort")
	if err != nil {
		t.Fatal(err)
	}
	if st.Observations != 0 || st.Reservoir != 0 {
		t.Fatalf("rejected frames ingested %d observations (%d in the reservoir)", st.Observations, st.Reservoir)
	}
	// The bucket holds exactly two samples: nothing above was charged, so two
	// single-sample frames pass (the media type matched case-insensitively
	// and with parameters) and a third is rate-limited.
	for _, ct := range []string{SampleFrameType, "Application/VND.Nitro.Samples; v=1"} {
		mustStatus(t, req(t, hs, "POST", obsPath, "tok-acme", good, map[string]string{"Content-Type": ct}), http.StatusAccepted)
	}
	mustStatus(t, req(t, hs, "POST", obsPath, "tok-acme", good, frameHeaders), http.StatusTooManyRequests)
}

var jsonContentType = map[string]string{"Content-Type": "application/json"}

// TestSampleFrameDecodeAllocationBound: a 12-byte frame claiming 2^32-1
// samples is rejected before the decoder allocates for them.
func TestSampleFrameDecodeAllocationBound(t *testing.T) {
	body := binary.LittleEndian.AppendUint32([]byte(sampleFrameMagic), math.MaxUint32)
	body = append(body, 0xff, 0xff, 0xff, 0xff)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		if _, err := DecodeSampleFrame(body); err == nil {
			t.Fatal("accepted a frame whose count the body cannot hold")
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("100 rejected 12-byte frames allocated %d bytes", grew)
	}
}

// BenchmarkSampleCodec times one encode plus decode of a 16-sample batch
// with 5 features and 5 times, the push fleet clients send, as a frame and
// as the JSON body.
func BenchmarkSampleCodec(b *testing.B) {
	rng := rand.New(rand.NewPCG(16, 5))
	batch := make([]online.RemoteSample, 16)
	for i := range batch {
		s := online.RemoteSample{Features: make([]float64, 5), Times: make([]float64, 5), Predicted: rng.IntN(5)}
		for j := range s.Features {
			s.Features[j] = rng.Float64() * 1e4
			s.Times[j] = rng.ExpFloat64() * 1e-3
		}
		batch[i] = s
	}
	b.Run("frame", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := AppendSampleFrame(nil, batch)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := DecodeSampleFrame(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := json.Marshal(observationsBody{Samples: batch})
			if err != nil {
				b.Fatal(err)
			}
			var body observationsBody
			if err := json.Unmarshal(data, &body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
