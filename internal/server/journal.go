package server

// Durable control-plane journal: a write-ahead log of canary lifecycle
// transitions and fleet-drift detector episodes, so a daemon crash (or
// kill -9) mid-canary does not silently abort the episode. On restart the
// registry replays the journal against the artifact store and resumes the
// in-flight canary at its recorded fraction and fleet-aggregated sample
// counts — a half-finished promotion picks up where it left off instead of
// restarting the gate from zero.
//
// Records are framed [4-byte LE payload length][4-byte LE CRC32 (IEEE) of
// the payload][JSON payload] and fsync'd on append, so the journal is
// consistent up to the last completed write. A torn or corrupt tail —
// the expected artifact of dying mid-append — is quarantined to a side
// file and reported as a typed *CorruptTailError, never a panic: every
// intact prefix record still replays.
//
// Every mutation is written first and applied second. A live handler
// appends its record and only once the append returns applies it, through
// the same apply that replay runs, so memory never holds a decision the
// journal lacks. Artifact bytes and deployment.json sit outside the log:
// a model file is written before the canary_start record that references
// it, and deployment.json is rewritten after the verdict it records, so a
// replayed record always finds the on-disk state it references.
//
// The journal fails closed. An append after a failed write starts at the
// last good offset, so the failed write's bytes cannot strand the next
// record behind them. A failed fsync, or a close, makes every later append
// fail until a restart recovers what the file holds.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"nitro/internal/online"
)

// Journal record operations.
const (
	// opCanaryStart stages a challenger: version, gate policy, provenance.
	opCanaryStart = "canary_start"
	// opCanaryProgress carries the cumulative fleet-aggregated outcome
	// counters for the live canary (cumulative, not deltas, so replay needs
	// only the last progress record and double-replay cannot double-count),
	// plus the per-reporter baselines that dedupe retried client reports —
	// restoring them on replay keeps a report retried across a daemon crash
	// idempotent too.
	opCanaryProgress = "canary_progress"
	// opCanaryEnd settles an episode with a decision.
	opCanaryEnd = "canary_end"
	// opDrift snapshots one function's fleet drift detector (written on
	// state transitions and at shutdown drain).
	opDrift = "drift"
	// opCleanShutdown marks an orderly Close; a journal ending with it is
	// known intact without tail forensics.
	opCleanShutdown = "clean_shutdown"
)

// reporterCounts is one poller's cumulative contribution to the live
// canary episode, keyed by reporter ID both in the server's dedup map and
// in canary_progress records.
type reporterCounts struct {
	Calls    int64 `json:"calls"`
	Failures int64 `json:"failures"`
}

// journalRecord is one journal entry. A single struct covers every op;
// unused fields stay zero and are omitted from the JSON.
type journalRecord struct {
	Op       string `json:"op"`
	Tenant   string `json:"tenant,omitempty"`
	Function string `json:"fn,omitempty"`
	// Trace is the correlation id of the request (or tune job) that caused
	// this record, so a WAL grep by trace id reconstructs the control-plane
	// span tree across crashes. Optional and backward-compatible: journals
	// written before the field decode fine (Unmarshal ignores unknown
	// fields in either direction), and replay treats "" as "no trace".
	Trace string `json:"trace,omitempty"`

	// Canary fields.
	Version        int     `json:"version,omitempty"`
	ETag           string  `json:"etag,omitempty"`
	Fraction       float64 `json:"fraction,omitempty"`
	MinSamples     int64   `json:"min_samples,omitempty"`
	MaxFailureRate float64 `json:"max_failure_rate,omitempty"`
	Auto           bool    `json:"auto,omitempty"`
	Calls          int64   `json:"calls,omitempty"`
	Failures       int64   `json:"failures,omitempty"`
	Decision       string  `json:"decision,omitempty"`
	// Reporters are the per-reporter cumulative totals backing the fleet
	// counters above (canary_progress only).
	Reporters map[string]reporterCounts `json:"reporters,omitempty"`

	// Drift detector snapshot.
	Drift *online.FleetSnapshot `json:"drift,omitempty"`
}

// CorruptTailError reports a torn or corrupt journal tail found during
// recovery. The good prefix was replayed; the bad bytes were moved to
// QuarantinePath and the journal truncated at Offset, so the daemon keeps
// running on every record that survived.
type CorruptTailError struct {
	// Offset is the byte position of the first bad frame.
	Offset int64
	// Reason describes what failed (truncated frame, CRC mismatch, bad JSON).
	Reason string
	// QuarantinePath is where the corrupt tail bytes were preserved for
	// post-mortem ("" when preserving them failed — the error still reports
	// the corruption).
	QuarantinePath string
}

func (e *CorruptTailError) Error() string {
	return fmt.Sprintf("server: journal corrupt at offset %d: %s (tail quarantined to %s)",
		e.Offset, e.Reason, e.QuarantinePath)
}

// journalFrameLimit bounds one record's payload; anything larger is
// corruption (a drift snapshot is < 1 KiB).
const journalFrameLimit = 1 << 20

// journal is the append-side handle. Callers serialize access: the
// registry holds its mutex around every call.
type journal struct {
	f    *os.File // nil once closed
	path string
	size int64 // offset just past the last good frame
	// err, once set, fails every later write: an fsync failed, so what the
	// file holds is unknown until recovery reads it back.
	err error
}

// openJournal reads an existing journal at path (creating an empty one if
// absent), returning the intact records, a non-nil *CorruptTailError when
// a bad tail was quarantined, and the open append handle positioned after
// the last good record.
func openJournal(path string) (*journal, []journalRecord, *CorruptTailError, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("server: opening journal: %w", err)
	}
	records, goodOff, corrupt, err := scanJournal(f)
	if err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	if corrupt != nil {
		corrupt.QuarantinePath = quarantineTail(f, path, goodOff)
		if err := f.Truncate(goodOff); err != nil {
			f.Close()
			return nil, nil, nil, fmt.Errorf("server: truncating corrupt journal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, nil, err
		}
	}
	return &journal{f: f, path: path, size: goodOff}, records, corrupt, nil
}

// scanJournal walks the frames from the start, returning every intact
// record, the offset just past the last good frame, and a description of
// the first bad frame (nil when the file is fully intact).
func scanJournal(f *os.File) ([]journalRecord, int64, *CorruptTailError, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, nil, err
	}
	var (
		records []journalRecord
		off     int64
		header  [8]byte
	)
	for {
		n, err := io.ReadFull(f, header[:])
		if err == io.EOF {
			return records, off, nil, nil
		}
		if err == io.ErrUnexpectedEOF {
			return records, off, &CorruptTailError{Offset: off,
				Reason: fmt.Sprintf("truncated frame header (%d of 8 bytes)", n)}, nil
		}
		if err != nil {
			return nil, 0, nil, fmt.Errorf("server: reading journal: %w", err)
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		sum := binary.LittleEndian.Uint32(header[4:8])
		if length == 0 || length > journalFrameLimit {
			return records, off, &CorruptTailError{Offset: off,
				Reason: fmt.Sprintf("implausible frame length %d", length)}, nil
		}
		payload := make([]byte, length)
		if n, err := io.ReadFull(f, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return records, off, &CorruptTailError{Offset: off,
					Reason: fmt.Sprintf("truncated payload (%d of %d bytes)", n, length)}, nil
			}
			return nil, 0, nil, fmt.Errorf("server: reading journal: %w", err)
		}
		if got := crc32.ChecksumIEEE(payload); got != sum {
			return records, off, &CorruptTailError{Offset: off,
				Reason: fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", sum, got)}, nil
		}
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return records, off, &CorruptTailError{Offset: off,
				Reason: fmt.Sprintf("bad record JSON: %v", err)}, nil
		}
		off += 8 + int64(length)
		records = append(records, rec)
	}
}

// quarantineTail preserves the bytes from off to EOF in a side file for
// post-mortem analysis. Best effort: a quarantine failure must not stop
// recovery, so it returns "" instead of an error.
func quarantineTail(f *os.File, path string, off int64) string {
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return ""
	}
	tail, err := io.ReadAll(f)
	if err != nil || len(tail) == 0 {
		return ""
	}
	qpath := path + ".quarantine"
	if err := os.WriteFile(qpath, tail, 0o644); err != nil {
		return ""
	}
	return qpath
}

// frameRecord encodes rec as one journal frame.
func frameRecord(rec journalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	return frame, nil
}

// append frames, writes and fsyncs one record. The record is durable when
// append returns nil.
func (j *journal) append(rec journalRecord) error {
	frame, err := frameRecord(rec)
	if err != nil {
		return err
	}
	if err := j.check(); err != nil {
		return err
	}
	// Write at the last good offset, not the handle's: bytes a failed write
	// left behind are overwritten, never stranded between two records.
	if _, err := j.f.WriteAt(frame, j.size); err != nil {
		j.f.Truncate(j.size) //nolint:errcheck // best effort; the next append overwrites them anyway
		return fmt.Errorf("server: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		j.err = fmt.Errorf("server: journal fsync failed, refusing writes until restart: %w", err)
		return j.err
	}
	j.size += int64(len(frame))
	return nil
}

// check reports why the journal refuses writes — it was closed, or an
// fsync failed — and nil while it accepts them.
func (j *journal) check() error {
	if j.f == nil {
		return errors.New("server: journal closed")
	}
	return j.err
}

// sizeBytes reports the journal's current on-disk size.
func (j *journal) sizeBytes() int64 {
	return j.size
}

// rewrite compacts the journal to exactly recs: written to a temp file,
// fsync'd, and atomically renamed over the old log. History is discarded —
// recs must be the full live state (snapshot + truncate).
func (j *journal) rewrite(recs []journalRecord) error {
	if err := j.check(); err != nil {
		return err
	}
	tmp := j.path + ".tmp"
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("server: journal compact: %w", err)
	}
	var size int64
	for _, rec := range recs {
		frame, err := frameRecord(rec)
		if err != nil {
			nf.Close()
			os.Remove(tmp)
			return err
		}
		if _, err := nf.Write(frame); err != nil {
			nf.Close()
			os.Remove(tmp)
			return fmt.Errorf("server: journal compact: %w", err)
		}
		size += int64(len(frame))
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, j.path); err != nil {
		nf.Close()
		os.Remove(tmp)
		return fmt.Errorf("server: journal compact: %w", err)
	}
	old := j.f
	j.f = nf
	j.size = size
	old.Close()
	// Make the rename itself durable, matching the fsync-on-append
	// discipline: without the directory fsync a power loss right after
	// compaction can resurrect the pre-compaction journal.
	if err := syncDir(filepath.Dir(j.path)); err != nil {
		j.err = fmt.Errorf("server: journal compact: %w", err)
		return j.err
	}
	return nil
}

// syncDir fsyncs a directory, committing renames inside it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// close closes the append handle; every later write is refused. Records
// already appended stay durable.
func (j *journal) close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
