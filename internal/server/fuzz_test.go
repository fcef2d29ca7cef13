package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nitro/internal/online"
)

// FuzzJournal writes arbitrary bytes as journal.wal and opens it. openJournal
// must never panic; it keeps exactly the intact prefix of frames and
// truncates the rest, so a reopen returns the same records with no corrupt
// tail, and a record appended after recovery reads back after them.
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
		if err := j.append(appended); err != nil {
			t.Fatal(err)
		}
		if err := j.close(); err != nil {
			t.Fatal(err)
		}
		j, again, corrupt, err = openJournal(path)
		if err != nil || corrupt != nil {
			t.Fatalf("reopen after append: %v, corrupt tail %v", err, corrupt)
		}
		defer j.close()
		if want := append(recs, appended); !reflect.DeepEqual(again, want) {
			t.Fatalf("after append read %d records, want %d", len(again), len(want))
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
