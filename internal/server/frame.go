package server

// Binary observation frames: the compact wire form of an observation batch.
// The client sends every push as one frame under SampleFrameType; the
// observations route decodes a frame when the request's media type names it
// and sends any other body through the strict JSON decoder, so older
// clients and curl keep working. Every field is little-endian and the body
// ends exactly after the last record:
//
//	magic "NSF1"                              4 B
//	sample count n (uint32)                   4 B
//	n records:
//	  feature count nf, time count nt         8 B (uint32 each)
//	  features, IEEE-754 float64 bits         8·nf B
//	  times                                   8·nt B
//	  predicted (int64)                       8 B
//
// A frame carries exactly the values a JSON body can: no NaN or ±Inf, a
// predicted index that fits an int, and at least one sample. Shape checks
// against the registered spec stay in Registry.PushObservations, so both
// body forms fail them the same way.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"nitro/internal/online"
)

// SampleFrameType is the media type of a binary observation frame.
const SampleFrameType = "application/vnd.nitro.samples"

const sampleFrameMagic = "NSF1"

// errEmptyBatch rejects a push without samples, in either body form.
var errEmptyBatch = fmt.Errorf("%w: empty sample batch", ErrInvalid)

// nonFinite reports whether x is NaN or ±Inf, which JSON cannot carry.
func nonFinite(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }

// appendFinite appends the float64 bits of xs, one sample's features or
// times as kind names them, and fails on the first NaN or ±Inf.
func appendFinite(dst []byte, xs []float64, sample int, kind string) ([]byte, error) {
	for j, x := range xs {
		if nonFinite(x) {
			return dst, fmt.Errorf("server: sample %d: %s %d is %v; observations carry finite values only", sample, kind, j, x)
		}
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst, nil
}

// readFinite fills xs, one sample's features or times as kind names them,
// from the float64 bits at the front of src and fails on the first NaN or
// ±Inf.
func readFinite(xs []float64, src []byte, sample int, kind string) error {
	for j := range xs {
		x := math.Float64frombits(binary.LittleEndian.Uint64(src[8*j:]))
		if nonFinite(x) {
			return fmt.Errorf("%w: sample %d: %s %d is %v", ErrInvalid, sample, kind, j, x)
		}
		xs[j] = x
	}
	return nil
}

// AppendSampleFrame appends the frame encoding of samples to dst. It fails,
// naming the sample, on any value the decoder would reject: a NaN or ±Inf,
// or a count that does not fit a uint32.
func AppendSampleFrame(dst []byte, samples []online.RemoteSample) ([]byte, error) {
	if uint64(len(samples)) > math.MaxUint32 {
		return dst, fmt.Errorf("server: %d samples do not fit one frame", len(samples))
	}
	size := 8
	for _, s := range samples {
		size += 16 + 8*(len(s.Features)+len(s.Times))
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, sampleFrameMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(samples)))
	for i, s := range samples {
		nf, nt := len(s.Features), len(s.Times)
		if uint64(nf) > math.MaxUint32 || uint64(nt) > math.MaxUint32 {
			return dst, fmt.Errorf("server: sample %d: %dx%d values do not fit one frame", i, nf, nt)
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(nf))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(nt))
		var err error
		if dst, err = appendFinite(dst, s.Features, i, "feature"); err != nil {
			return dst, err
		}
		if dst, err = appendFinite(dst, s.Times, i, "time"); err != nil {
			return dst, err
		}
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(s.Predicted)))
	}
	return dst, nil
}

// DecodeSampleFrame decodes one frame. A short or long body, a wrong magic,
// counts the body cannot hold, a NaN or ±Inf, a predicted index outside int
// and an empty batch all fail with ErrInvalid. Every count is checked
// against the bytes left before anything is allocated for it, so the
// decoded values never outnumber len(data)/8.
func DecodeSampleFrame(data []byte) ([]online.RemoteSample, error) {
	if len(data) < 8 || string(data[:4]) != sampleFrameMagic {
		return nil, fmt.Errorf("%w: not a sample frame", ErrInvalid)
	}
	n, body := binary.LittleEndian.Uint32(data[4:]), data[8:]
	switch {
	case n == 0:
		return nil, errEmptyBatch
	case uint64(n) > uint64(len(body)/16): // a record takes at least 16 bytes
		return nil, fmt.Errorf("%w: %d samples cannot fit in %d bytes", ErrInvalid, n, len(body))
	}
	samples := make([]online.RemoteSample, n)
	for i := range samples {
		if len(body) < 16 {
			return nil, fmt.Errorf("%w: frame ends inside sample %d", ErrInvalid, i)
		}
		nf := uint64(binary.LittleEndian.Uint32(body))
		nt := uint64(binary.LittleEndian.Uint32(body[4:]))
		if 8*(nf+nt) > uint64(len(body)-16) {
			return nil, fmt.Errorf("%w: sample %d claims %dx%d values past the end of the frame", ErrInvalid, i, nf, nt)
		}
		// One array per sample, as the JSON decoder makes: a sample the
		// reservoir keeps pins only its own values. Features is capped so
		// it cannot grow into Times.
		vals := make([]float64, nf+nt)
		feats, times := vals[:nf:nf], vals[nf:]
		if err := readFinite(feats, body[8:], i, "feature"); err != nil {
			return nil, err
		}
		if err := readFinite(times, body[8+8*nf:], i, "time"); err != nil {
			return nil, err
		}
		body = body[8+8*len(vals):]
		pred := int64(binary.LittleEndian.Uint64(body))
		if int64(int(pred)) != pred {
			return nil, fmt.Errorf("%w: sample %d: predicted %d overflows int", ErrInvalid, i, pred)
		}
		body = body[8:]
		samples[i] = online.RemoteSample{Features: feats, Times: times, Predicted: int(pred)}
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the last sample", ErrInvalid, len(body))
	}
	return samples, nil
}
