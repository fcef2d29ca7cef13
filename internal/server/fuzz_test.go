package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nitro/internal/online"
)

// FuzzJournal writes arbitrary bytes as journal.wal and opens it. openJournal
// must never panic; it keeps exactly the intact prefix of frames and
// truncates the rest, so a reopen returns the same records with no corrupt
// tail. On the writer side, the same bytes then stand in for what a failed
// write left after the last good frame: a record appended after them still
// reads back right after the intact prefix, and when they are no longer
// than its frame, nothing else reads back.
func FuzzJournal(f *testing.F) {
	frame := func(rec journalRecord) []byte {
		b, err := frameRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	start := frame(journalRecord{Op: opCanaryStart, Tenant: "acme", Function: "sort", Trace: "t-1",
		Version: 2, ETag: `"sha256-ab"`, Fraction: 0.25, MinSamples: 20, MaxFailureRate: 0.1})
	progress := frame(journalRecord{Op: opCanaryProgress, Tenant: "acme", Function: "sort", Version: 2,
		Calls: 9, Failures: 1, Reporters: map[string]reporterCounts{"p1": {Calls: 9, Failures: 1}}})
	drift := frame(journalRecord{Op: opDrift, Tenant: "acme", Function: "sort", Drift: &online.FleetSnapshot{}})
	valid := append(append(append([]byte(nil), start...), progress...), drift...)
	flipped := append([]byte(nil), valid...)
	flipped[len(start)+10] ^= 0x20
	badJSON := []byte(`{"op":1}`)
	raw := binary.LittleEndian.AppendUint32(nil, uint32(len(badJSON)))
	raw = binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(badJSON))
	for _, seed := range [][]byte{
		nil,
		valid,
		valid[:len(valid)-3],      // torn payload
		valid[:len(start)+5],      // torn header
		flipped,                   // checksum mismatch
		append(start, 0, 0, 0, 0), // zero length
		append(start, append(raw, badJSON...)...),
		[]byte("not a journal at all"),
	} {
		f.Add(seed)
	}
	appended := journalRecord{Op: opCanaryEnd, Tenant: "acme", Function: "sort", Version: 2, Decision: DecisionPromoted}
	appendedLen := len(frame(appended))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, corrupt, err := openJournal(path)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		size := j.sizeBytes()
		if err := j.close(); err != nil {
			t.Fatal(err)
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(kept)) != size || !bytes.HasPrefix(data, kept) {
			t.Fatalf("kept %d bytes that are not the %d-byte intact prefix", len(kept), size)
		}
		switch {
		case corrupt == nil && size != int64(len(data)):
			t.Fatalf("dropped %d bytes without reporting a corrupt tail", int64(len(data))-size)
		case corrupt != nil && corrupt.Offset != size:
			t.Fatalf("corrupt tail at %d, but the kept prefix ends at %d", corrupt.Offset, size)
		case corrupt != nil && intactFrame(data[size:]):
			t.Fatalf("dropped an intact frame at offset %d", size)
		}

		j, again, corrupt, err := openJournal(path)
		if err != nil || corrupt != nil {
			t.Fatalf("reopen: %v, corrupt tail %v", err, corrupt)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("reopen read %d records, first open %d", len(again), len(recs))
		}
		leaveTornBytes(t, j, data)
		if err := j.append(appended); err != nil {
			t.Fatal(err)
		}
		if err := j.close(); err != nil {
			t.Fatal(err)
		}
		j, again, corrupt, err = openJournal(path)
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer j.close()
		want := append(recs, appended)
		if len(again) < len(want) || !reflect.DeepEqual(again[:len(want)], want) {
			t.Fatalf("after leftover bytes and an append read %d records, want the %d kept ones and the appended one first",
				len(again), len(recs))
		}
		// Leftovers no longer than the frame are overwritten whole.
		if len(data) <= appendedLen && (len(again) != len(want) || corrupt != nil) {
			t.Fatalf("append over %d leftover bytes read %d records (corrupt tail %v), want exactly %d",
				len(data), len(again), corrupt, len(want))
		}
	})
}

// intactFrame reports whether b starts with a whole frame that scanJournal
// would accept: a plausible length, the full payload, a matching checksum
// and a record that decodes.
func intactFrame(b []byte) bool {
	if len(b) < 8 {
		return false
	}
	n := binary.LittleEndian.Uint32(b)
	if n == 0 || n > journalFrameLimit || uint64(len(b)-8) < uint64(n) {
		return false
	}
	payload := b[8 : 8+n]
	var rec journalRecord
	return crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(b[4:]) && json.Unmarshal(payload, &rec) == nil
}

// FuzzSampleFrame feeds arbitrary bytes to DecodeSampleFrame. It must never
// panic; an accepted frame re-encodes to the same bytes, and it never
// decodes more values than len(data)/8.
func FuzzSampleFrame(f *testing.F) {
	good := []online.RemoteSample{
		{Features: []float64{1, math.Copysign(0, -1)}, Times: []float64{0.5, 2}, Predicted: 1},
		{Features: []float64{}, Times: []float64{math.MaxFloat64}, Predicted: -1},
	}
	valid, err := AppendSampleFrame(nil, good)
	if err != nil {
		f.Fatal(err)
	}
	huge := binary.LittleEndian.AppendUint32([]byte(sampleFrameMagic), math.MaxUint32)
	for _, seed := range [][]byte{
		nil,
		valid,
		valid[:len(valid)-1],
		append(bytes.Clone(valid), 0),
		append(huge, 0xff, 0xff, 0xff, 0xff),
		[]byte(`{"samples":[]}`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		samples, err := DecodeSampleFrame(data)
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("rejection %v is not ErrInvalid", err)
			}
			return
		}
		values := 0
		for _, s := range samples {
			values += len(s.Features) + len(s.Times)
		}
		if values > len(data)/8 {
			t.Fatalf("decoded %d values from %d bytes", values, len(data))
		}
		again, err := AppendSampleFrame(nil, samples)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted frame re-encodes to different bytes")
		}
	})
}

// FuzzObservationsJSON feeds arbitrary bytes to the observations route's
// JSON decoding. It must never panic, and every batch it accepts encodes
// as a frame that decodes to the same samples: the two body forms accept
// the same values.
func FuzzObservationsJSON(f *testing.F) {
	for _, seed := range []string{
		`{"samples":[{"features":[1,-0,5e-324],"times":[1.5,1e308],"predicted":2}]}`,
		`{"samples":[{"features":[],"times":null,"predicted":-1},null]}`,
		`{"Samples":[{"FEATURES":[1],"times":[2],"predicted":0}]} trailing`,
		`{"samples":[]}`,
		`{"samples":[{"predicted":1.5}]}`,
		`{"samples":[{"features":[1e400]}]}`,
		`{"samples":[{"extra":1}]}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req := httptest.NewRequest("POST", "/api/v1/functions/fn/observations", bytes.NewReader(data))
		req.Header.Set("Content-Type", "application/json")
		samples, err := decodeObservations(req)
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("rejection %v is not ErrInvalid", err)
			}
			return
		}
		frame, err := AppendSampleFrame(nil, samples)
		if err != nil {
			t.Fatalf("JSON accepted a batch a frame cannot carry: %v", err)
		}
		viaFrame, err := DecodeSampleFrame(frame)
		if err != nil {
			t.Fatalf("frame decoder rejected a batch the JSON decoder accepted: %v", err)
		}
		if !sameSamples(viaFrame, samples) {
			t.Fatalf("frame decoded %+v, JSON %+v", viaFrame, samples)
		}
	})
}

// FuzzFunctionSpec feeds arbitrary bytes to the register route's strict
// JSON decoding and FunctionSpec.validate. Neither may panic, and an
// accepted spec survives json.Marshal and a second decode unchanged.
func FuzzFunctionSpec(f *testing.F) {
	for _, seed := range []string{
		`{"name":"sort","features":["n"],"variants":["merge","radix"],"default":1}`,
		`{"name":"a.b-c_d","features":["é","x"],"variants":["a","a","b"],"default":0}`,
		`{"name":"-bad","features":["n"],"variants":["a","b"]}`,
		`{"name":"sort","features":[],"variants":["a","b"],"default":0}`,
		`{"name":"sort","features":["n"],"variants":["a","b"],"default":2}`,
		`{"name":"sort","features":["n"],"variants":["a","b"],"unknown":1}`,
		`{"name":"sort","features":["n"],"variants":["a","b"],"default":1e3}`,
		`{"name":"sort","features":["\xff"],"variants":["a","b"],"default":0}`,
	} {
		f.Add([]byte(seed))
	}
	decode := func(data []byte) (FunctionSpec, error) {
		req := httptest.NewRequest("POST", "/api/v1/functions", bytes.NewReader(data))
		var spec FunctionSpec
		if err := decodeBody(req, &spec); err != nil {
			return spec, err
		}
		return spec, spec.validate()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decode(data)
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("rejection %v is not ErrInvalid", err)
			}
			return
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal accepted spec: %v", err)
		}
		again, err := decode(out)
		if err != nil {
			t.Fatalf("re-decoding %s: %v", out, err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("spec changed across a round trip: %+v -> %+v", spec, again)
		}
	})
}
