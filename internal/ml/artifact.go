package ml

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"
)

// Artifact versioning helpers for the model registry: a serialized model is
// distributed as an opaque byte blob identified by a strong ETag (content
// hash) and its stamped version, so clients can pull with If-None-Match and
// servers can enforce If-Match preconditions without parsing the body.

// ETagOf returns the strong HTTP entity tag of a serialized model artifact:
// a quoted sha256 of the exact bytes. Byte-identical artifacts — and only
// those — share an ETag.
func ETagOf(data []byte) string {
	sum := sha256.Sum256(data)
	return `"sha256-` + hex.EncodeToString(sum[:]) + `"`
}

// EncodeArtifact serializes m in the binary form below and returns the
// bytes with their ETag. Only an SVM model, the kind every tuned and
// distilled model carries, can be encoded; any other classifier is an
// error. The form is deterministic and canonical: a model has exactly one
// encoding, so re-encoding a decoded artifact reproduces its bytes and its
// ETag.
func EncodeArtifact(m *Model) ([]byte, string, error) {
	svm, err := svmOf(m)
	if err != nil {
		return nil, "", err
	}
	data, err := encodeBinary(m, svm)
	if err != nil {
		return nil, "", err
	}
	return data, ETagOf(data), nil
}

// DecodeArtifact reconstructs a model from artifact bytes and verifies the
// expected ETag when one is supplied (empty wantETag skips the check) — a
// truncated or corrupted pull fails loudly instead of installing garbage.
func DecodeArtifact(data []byte, wantETag string) (*Model, error) {
	if wantETag != "" {
		if got := ETagOf(data); got != wantETag {
			return nil, fmt.Errorf("ml: artifact etag mismatch: got %s, want %s", got, wantETag)
		}
	}
	return UnmarshalModel(data)
}

// The binary artifact of an SVM model. Every field is little-endian, floats
// are IEEE-754 float64 bits, and the body ends exactly after the compiled
// program:
//
//	magic "NMA1"                                            4 B
//	meta flag; if 1: version (int64), created_at as Unix    1 B [+ 28 B]
//	  seconds (int64) and nanoseconds (uint32), trained_on (int64)
//	scaler flag; if 1: width n (uint32), n minima, n maxima 1 B [+ 4 + 16n B]
//	kernel: kind (0 rbf, 1 linear), then gamma for rbf      1 B [+ 8 B]
//	C                                                       8 B
//	classes: count k (uint32), k labels (int64)             4 + 8k B
//	support-vector table: rows r, width d (uint32 each),    8 + 8rd B
//	  then the r·d values row-major
//	pairs: count p (uint32), then p records of              4 B + p records
//	  a, b (int64), rho, iters (int64), index count (uint32)
//	  and the indices into the table (uint32 each),
//	  coefficient count (uint32) and the coefficients
//	compiled flag; if 1: node count (uint32), per node      1 B [+ ...]
//	  feature, left, right, class (int32 each) and
//	  threshold; class count (uint32) and labels (int64);
//	  dim (int64), margin, agreement, fallback rate,
//	  corpus size (int64)
//
// The form carries exactly what the JSON form can: no NaN or ±Inf, and a
// created_at in years 0 through 9999. It is canonical, so the decoder
// rejects anything the encoder would not write: a flag other than 0 or 1,
// an unknown kernel kind, nanoseconds past a second, a table whose width is
// 0 with rows or nonzero without, and trailing bytes. It also rejects an
// index outside the table, a pair whose index and coefficient counts
// differ, and a compiled program that Compiled.Validate rejects.
const binaryMagic = "NMA1"

// Kernel kinds in the binary form.
const (
	kernelRBF byte = iota
	kernelLinear
)

// Bytes a record takes at least: a pair (a, b, rho, iters and two counts)
// and a compiled node.
const (
	minPairBytes = 8*4 + 4*2
	nodeBytes    = 4*4 + 8
)

// createdAtMin and createdAtMax bound the created_at seconds both forms can
// carry: encoding/json writes only years 0 through 9999.
var (
	createdAtMin = time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	createdAtMax = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC).Unix() - 1
)

// binaryWriter appends binary-form fields to b and keeps the first error.
type binaryWriter struct {
	b   []byte
	err error
}

func (w *binaryWriter) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("ml: cannot encode artifact: "+format, args...)
	}
}

// flag writes v as one byte and returns it.
func (w *binaryWriter) flag(v bool) bool {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
	return v
}

func (w *binaryWriter) count(n int, what string) {
	if uint64(n) > math.MaxUint32 {
		w.fail("%d %s do not fit a uint32 count", n, what)
	}
	w.b = binary.LittleEndian.AppendUint32(w.b, uint32(n))
}

func (w *binaryWriter) int(v int) { w.b = binary.LittleEndian.AppendUint64(w.b, uint64(int64(v))) }

func (w *binaryWriter) float(v float64, what string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		w.fail("%s is %v", what, v)
	}
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v))
}

func (w *binaryWriter) floats(xs []float64, what string) {
	for _, x := range xs {
		w.float(x, what)
	}
}

func (w *binaryWriter) ints(xs []int, what string) {
	w.count(len(xs), what)
	for _, x := range xs {
		w.int(x)
	}
}

// encodeBinary writes m, whose classifier is svm, in the binary form.
func encodeBinary(m *Model, svm *SVM) ([]byte, error) {
	w := &binaryWriter{b: []byte(binaryMagic)}

	if meta := m.Meta; w.flag(meta != nil) {
		w.int(meta.Version)
		sec := meta.CreatedAt.Unix()
		if sec < createdAtMin || sec > createdAtMax {
			w.fail("created_at %v is outside years 0 through 9999", meta.CreatedAt)
		}
		w.b = binary.LittleEndian.AppendUint64(w.b, uint64(sec))
		w.b = binary.LittleEndian.AppendUint32(w.b, uint32(meta.CreatedAt.Nanosecond()))
		w.int(meta.TrainedOn)
	}
	if s := m.Scaler; w.flag(s != nil) {
		if len(s.Min) != len(s.Max) {
			w.fail("scaler has %d minima but %d maxima", len(s.Min), len(s.Max))
		}
		w.count(len(s.Min), "scaler features")
		w.floats(s.Min, "a scaler minimum")
		w.floats(s.Max, "a scaler maximum")
	}
	switch k := svm.kernel.(type) {
	case RBFKernel:
		w.b = append(w.b, kernelRBF)
		w.float(k.Gamma, "the kernel gamma")
	case LinearKernel:
		w.b = append(w.b, kernelLinear)
	default:
		w.fail("unknown kernel %T", svm.kernel)
	}
	w.float(svm.C, "C")
	w.ints(svm.classes, "classes")

	width := 0
	if len(svm.svRows) > 0 {
		width = len(svm.svRows[0])
	}
	w.count(len(svm.svRows), "support vectors")
	w.count(width, "support-vector features")
	for i, row := range svm.svRows {
		if len(row) != width || width == 0 {
			w.fail("support vector %d has %d features; every row needs the first one's %d, at least 1", i, len(row), width)
		}
		w.floats(row, "a support-vector value")
	}
	w.count(len(svm.pairs), "pairs")
	for i := range svm.pairs {
		p := &svm.pairs[i]
		w.int(p.a)
		w.int(p.b)
		w.float(p.sol.rho, "a pair's rho")
		w.int(p.sol.iters)
		if len(p.svID) != len(p.sol.svCoef) {
			w.fail("svm pair %d has %d table indices for %d coefficients", i, len(p.svID), len(p.sol.svCoef))
		}
		w.count(len(p.svID), "support-vector indices")
		for _, id := range p.svID {
			if id < 0 || id >= len(svm.svRows) {
				w.fail("svm pair %d: support vector %d of a %d-row table", i, id, len(svm.svRows))
			}
			w.b = binary.LittleEndian.AppendUint32(w.b, uint32(id))
		}
		w.count(len(p.sol.svCoef), "coefficients")
		w.floats(p.sol.svCoef, "a coefficient")
	}

	if c := m.Compiled; w.flag(c != nil) {
		if err := c.Validate(); err != nil {
			w.fail("%v", err)
		}
		w.count(len(c.Nodes), "compiled nodes")
		for _, n := range c.Nodes {
			w.b = binary.LittleEndian.AppendUint32(w.b, uint32(n.Feature))
			w.b = binary.LittleEndian.AppendUint32(w.b, uint32(n.Left))
			w.b = binary.LittleEndian.AppendUint32(w.b, uint32(n.Right))
			w.b = binary.LittleEndian.AppendUint32(w.b, uint32(n.Class))
			w.float(n.Threshold, "a compiled threshold")
		}
		w.ints(c.Classes, "compiled classes")
		w.int(c.Dim)
		w.float(c.Margin, "the compiled margin")
		w.float(c.Agreement, "the compiled agreement")
		w.float(c.FallbackRate, "the compiled fallback rate")
		w.int(c.CorpusSize)
	}
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

// binaryReader consumes binary-form fields from the front of b and keeps
// the first error; once it has one, every read returns a zero value, so no
// count read after a failure allocates anything.
type binaryReader struct {
	b   []byte
	err error
}

func (r *binaryReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("ml: bad binary artifact: "+format, args...)
		r.b = nil
	}
}

// next returns the next n bytes, or nil when fewer are left.
func (r *binaryReader) next(n uint64, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail("body ends inside %s", what)
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *binaryReader) byte(what string) byte {
	if p := r.next(1, what); p != nil {
		return p[0]
	}
	return 0
}

func (r *binaryReader) flag(what string) bool {
	switch b := r.byte(what); b {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("%s flag is %d, not 0 or 1", what, b)
		return false
	}
}

func (r *binaryReader) uint32(what string) uint32 {
	if p := r.next(4, what); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

// count reads a uint32 count of elements that take at least size bytes
// each, and fails unless the bytes left can hold them.
func (r *binaryReader) count(size uint64, what string) int {
	n := uint64(r.uint32(what))
	if n > uint64(len(r.b))/size {
		r.fail("%d %s cannot fit in %d bytes", n, what, len(r.b))
		return 0
	}
	return int(n)
}

func (r *binaryReader) int(what string) int {
	p := r.next(8, what)
	if p == nil {
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(p))
	if int64(int(v)) != v {
		r.fail("%s %d overflows int", what, v)
	}
	return int(v)
}

func (r *binaryReader) float(what string) float64 {
	p := r.next(8, what)
	if p == nil {
		return 0
	}
	return r.finite(p, what)
}

// finite decodes the float64 bits at the front of p and fails on NaN or
// ±Inf.
func (r *binaryReader) finite(p []byte, what string) float64 {
	v := math.Float64frombits(binary.LittleEndian.Uint64(p))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("%s is %v", what, v)
	}
	return v
}

// floats fills xs from the next 8·len(xs) bytes.
func (r *binaryReader) floats(xs []float64, what string) {
	p := r.next(8*uint64(len(xs)), what)
	if p == nil {
		return
	}
	for i := range xs {
		xs[i] = r.finite(p[8*i:], what)
	}
}

// ints reads a count and that many int64 labels; a count of 0 gives nil.
func (r *binaryReader) ints(what string) []int {
	n := r.count(8, what)
	if n == 0 {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = r.int(what)
	}
	return xs
}

// decodeBinary decodes a binary-form artifact. Every count is checked
// against the bytes left before anything is allocated for it, so a short
// body claiming a huge table fails without allocating the table.
func decodeBinary(data []byte) (*Model, error) {
	if len(data) < len(binaryMagic) || string(data[:len(binaryMagic)]) != binaryMagic {
		return nil, fmt.Errorf("ml: bad binary artifact: unknown magic %q", data[:min(len(data), len(binaryMagic))])
	}
	r := &binaryReader{b: data[len(binaryMagic):]}
	m := &Model{}
	if r.flag("meta") {
		meta := &ModelMeta{Version: r.int("version")}
		p := r.next(12, "created_at")
		if p != nil {
			sec, nsec := int64(binary.LittleEndian.Uint64(p)), binary.LittleEndian.Uint32(p[8:])
			if sec < createdAtMin || sec > createdAtMax || nsec >= 1e9 {
				r.fail("created_at %d s %d ns is not a time in years 0 through 9999", sec, nsec)
			} else {
				meta.CreatedAt = time.Unix(sec, int64(nsec)).UTC()
			}
		}
		meta.TrainedOn = r.int("trained_on")
		m.Meta = meta
	}
	if r.flag("scaler") {
		m.Scaler = &Scaler{}
		if n := r.count(16, "scaler features"); n > 0 {
			vals := make([]float64, 2*n)
			r.floats(vals, "a scaler bound")
			m.Scaler.Min, m.Scaler.Max = vals[:n:n], vals[n:]
		}
	}
	var k Kernel
	switch kind := r.byte("kernel"); kind {
	case kernelRBF:
		k = RBFKernel{Gamma: r.float("the kernel gamma")}
	case kernelLinear:
		k = LinearKernel{}
	default:
		r.fail("unknown kernel kind %d", kind)
	}
	svm := NewSVM(k, r.float("C"))
	svm.classes = r.ints("classes")

	rows, width := uint64(r.uint32("support vectors")), uint64(r.uint32("support-vector features"))
	switch {
	case r.err != nil:
	case (rows == 0) != (width == 0):
		r.fail("a support-vector table of %d rows %d wide", rows, width)
	case rows*width > uint64(len(r.b))/8:
		r.fail("%d support vectors of %d features cannot fit in %d bytes", rows, width, len(r.b))
	case rows > 0:
		vals := make([]float64, rows*width)
		r.floats(vals, "a support-vector value")
		svm.svRows = make([][]float64, rows)
		for i := range svm.svRows {
			svm.svRows[i] = vals[uint64(i)*width : uint64(i+1)*width : uint64(i+1)*width]
		}
	}
	if n := r.count(minPairBytes, "pairs"); n > 0 {
		svm.pairs = make([]svmPair, n)
		sols := make([]smoResult, n)
		for i := range svm.pairs {
			p := &svm.pairs[i]
			p.a, p.b = r.int("a pair label"), r.int("a pair label")
			sol := &sols[i]
			sol.rho, sol.iters = r.float("a pair's rho"), r.int("a pair's iters")
			ni := r.count(4, "support-vector indices")
			ids := r.next(4*uint64(ni), "support-vector indices")
			p.svID, sol.svX = make([]int, ni), make([][]float64, ni)
			for s := range p.svID {
				id := binary.LittleEndian.Uint32(ids[4*s:])
				if uint64(id) >= rows {
					r.fail("svm pair %d: support vector %d of a %d-row table", i, id, rows)
					break
				}
				p.svID[s], sol.svX[s] = int(id), svm.svRows[id]
			}
			if nc := r.count(8, "coefficients"); nc != ni && r.err == nil {
				r.fail("svm pair %d has %d support vectors but %d coefficients", i, ni, nc)
			}
			sol.svCoef = make([]float64, ni)
			r.floats(sol.svCoef, "a coefficient")
			p.sol = sol
			if r.err != nil {
				break
			}
		}
	}
	svm.buildClassIndex()
	m.Classifier = svm

	if r.flag("compiled") {
		c := &Compiled{}
		nodes := r.next(nodeBytes*uint64(r.count(nodeBytes, "compiled nodes")), "compiled nodes")
		c.Nodes = make([]CompiledNode, len(nodes)/nodeBytes)
		for i := range c.Nodes {
			p := nodes[nodeBytes*i:]
			c.Nodes[i] = CompiledNode{
				Feature:   int32(binary.LittleEndian.Uint32(p)),
				Left:      int32(binary.LittleEndian.Uint32(p[4:])),
				Right:     int32(binary.LittleEndian.Uint32(p[8:])),
				Class:     int32(binary.LittleEndian.Uint32(p[12:])),
				Threshold: r.finite(p[16:], "a compiled threshold"),
			}
		}
		c.Classes = r.ints("compiled classes")
		c.Dim = r.int("compiled dim")
		c.Margin = r.float("the compiled margin")
		c.Agreement = r.float("the compiled agreement")
		c.FallbackRate = r.float("the compiled fallback rate")
		c.CorpusSize = r.int("the compiled corpus size")
		if r.err == nil {
			if err := c.Validate(); err != nil {
				return nil, fmt.Errorf("ml: bad compiled artifact: %w", err)
			}
		}
		m.Compiled = c
	}
	switch {
	case r.err != nil:
		return nil, r.err
	case len(r.b) != 0:
		return nil, fmt.Errorf("ml: bad binary artifact: %d bytes after the compiled program", len(r.b))
	}
	return m, nil
}
