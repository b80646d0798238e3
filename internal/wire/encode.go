// Binary encoding of protocol payloads: varint-based, schema-aware, and
// symmetric (every Encoder.X has a Decoder.X that accepts exactly its
// output). The Decoder carries a sticky error so frame decoding reads as
// straight-line code and checks once at the end.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"prefdb/internal/engine"
	"prefdb/internal/exec"
	"prefdb/internal/prel"
	"prefdb/internal/schema"
	"prefdb/internal/types"
)

// ErrTruncated reports a payload that ended before its encoded content.
var ErrTruncated = errors.New("wire: truncated payload")

// ErrUnknownSetting reports an evaluation mode this build does not
// define, or a settings mask that sets a reserved bit — typically one
// sent by a build that had a mode or an option this one removed.
var ErrUnknownSetting = errors.New("wire: unknown setting value")

// Encoder builds a frame payload.
type Encoder struct {
	b []byte
}

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.b }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// Byte appends one raw byte.
func (e *Encoder) Byte(b byte) { e.b = append(e.b, b) }

// Varint appends a signed (zig-zag) varint.
func (e *Encoder) Varint(v int64) { e.b = binary.AppendVarint(e.b, v) }

// Bool appends a single byte 0/1.
func (e *Encoder) Bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

// Float appends a float64 as its 8-byte IEEE bits (big-endian), so the
// value round-trips bit-exactly — required by the byte-identical results
// contract between remote and embedded execution.
func (e *Encoder) Float(v float64) {
	e.b = binary.BigEndian.AppendUint64(e.b, math.Float64bits(v))
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// Value appends one relational scalar: kind byte plus kind-specific
// payload.
func (e *Encoder) Value(v types.Value) {
	e.b = append(e.b, byte(v.Kind()))
	switch v.Kind() {
	case types.KindNull:
	case types.KindInt:
		e.Varint(v.AsInt())
	case types.KindFloat:
		e.Float(v.AsFloat())
	case types.KindString:
		e.String(v.AsString())
	case types.KindBool:
		e.Bool(v.AsBool())
	}
}

// SC appends a score-confidence pair: known byte, then score and conf for
// known pairs (⊥ costs one byte).
func (e *Encoder) SC(sc types.SC) {
	e.Bool(!sc.IsBottom())
	if !sc.IsBottom() {
		e.Float(sc.Score)
		e.Float(sc.Conf)
	}
}

// Row appends one p-relation row: tuple width, values, score-confidence
// pair.
func (e *Encoder) Row(r prel.Row) {
	e.Uvarint(uint64(len(r.Tuple)))
	for _, v := range r.Tuple {
		e.Value(v)
	}
	e.SC(r.SC)
}

// Schema appends a relation schema: columns (table, name, kind) and key
// ordinals.
func (e *Encoder) Schema(s *schema.Schema) {
	e.Uvarint(uint64(len(s.Columns)))
	for _, c := range s.Columns {
		e.String(c.Table)
		e.String(c.Name)
		e.b = append(e.b, byte(c.Kind))
	}
	e.Uvarint(uint64(len(s.Key)))
	for _, k := range s.Key {
		e.Uvarint(uint64(k))
	}
}

// Settings appends the explicitly-set query options: a presence mask, then
// the value of each present option in mask-bit order. Only options the
// caller actually chose travel, so server-side defaults fill the rest of
// the precedence chain exactly as they would embedded.
func (e *Encoder) Settings(s engine.Settings) {
	var mask uint64
	for i, has := range settingsPresence(&s) {
		if has != nil && *has {
			mask |= 1 << i
		}
	}
	e.Uvarint(mask)
	if s.HasMode {
		e.Uvarint(uint64(s.Mode))
	}
	if s.HasTimeout {
		e.Varint(int64(s.Timeout))
	}
	if s.HasMaxRows {
		e.Varint(int64(s.MaxRows))
	}
	if s.HasMaxCells {
		e.Varint(int64(s.MaxCells))
	}
	if s.HasMemoryBudget {
		e.Varint(s.MemoryBudget)
	}
	// HasProfile carries no value: the binding itself cannot travel. The
	// server rejects statements whose mask sets it.
}

// settingsPresence enumerates the Has* fields in mask-bit order; encoder
// and decoder share it so the bit assignment cannot drift. A nil entry is
// a reserved bit: bit 1 carried the retired worker-count option, bit 6
// the retired score-cache mode, bits 7 and 8 the retired batch-mode and
// batch-size options, bit 9 the retired colstore mode, and a mask setting
// any of them fails the decode.
func settingsPresence(s *engine.Settings) []*bool {
	return []*bool{
		&s.HasMode, nil, &s.HasTimeout, &s.HasMaxRows,
		&s.HasMaxCells, &s.HasMemoryBudget, nil, nil,
		nil, nil, &s.HasProfile,
	}
}

// statsFields enumerates Stats counters in wire order; encoder and decoder
// share it. Appending new counters at the end keeps old captures readable.
func statsFields(s *exec.Stats) []*int {
	return []*int{
		&s.RowsScanned, &s.TuplesMaterialized, &s.CellsMaterialized,
		&s.NativeCalls, &s.IndexProbes, &s.PreferEvals,
		&s.ScoreRelationRows, &s.ScoreEvals, &s.CacheHits, &s.CacheMisses,
		&s.Batches, &s.SegmentsScanned, &s.SegmentsSkipped,
		&s.ColBatches, &s.RowsMaterialized, &s.JoinProbeBatches,
	}
}

// Stats appends the execution counters (count-prefixed varints).
func (e *Encoder) Stats(s exec.Stats) {
	fields := statsFields(&s)
	e.Uvarint(uint64(len(fields)))
	for _, f := range fields {
		e.Varint(int64(*f))
	}
}

// Error appends a structured statement failure. Guard errors (lifecycle
// trips) keep their full structure — limit kind, budget, observed value,
// stats — so the client can rebuild a *exec.GuardError and the embedded
// errors.Is / errors.As contracts hold across the wire; other errors
// travel as their message.
func (e *Encoder) Error(err error) {
	var ge *exec.GuardError
	if errors.As(err, &ge) {
		e.Bool(true)
		e.String(string(ge.Limit))
		e.Varint(ge.Budget)
		e.Varint(ge.Observed)
		e.Stats(ge.Stats)
		return
	}
	e.Bool(false)
	e.String(err.Error())
}

// Decoder consumes a frame payload produced by Encoder. The first failure
// sticks: subsequent reads return zero values and Err reports it.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder wraps a payload.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decoding failure, nil if all reads succeeded.
func (d *Decoder) Err() error { return d.err }

// fail records the sticky error.
func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(ErrTruncated)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail(ErrTruncated)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail(ErrTruncated)
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Bool reads a 0/1 byte.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Float reads an 8-byte IEEE float.
func (d *Decoder) Float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail(ErrTruncated)
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)) < n {
		d.fail(ErrTruncated)
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// Value reads one relational scalar.
func (d *Decoder) Value() types.Value {
	switch k := types.Kind(d.Byte()); k {
	case types.KindNull:
		return types.Null()
	case types.KindInt:
		return types.Int(d.Varint())
	case types.KindFloat:
		return types.Float(d.Float())
	case types.KindString:
		return types.Str(d.String())
	case types.KindBool:
		return types.Bool(d.Bool())
	default:
		if d.err == nil {
			d.fail(fmt.Errorf("wire: unknown value kind %d", k))
		}
		return types.Null()
	}
}

// SC reads a score-confidence pair.
func (d *Decoder) SC() types.SC {
	if !d.Bool() {
		return types.Bottom()
	}
	score := d.Float()
	conf := d.Float()
	return types.NewSC(score, conf)
}

// Row reads one p-relation row into buf (reused when wide enough),
// returning the row backed by it.
func (d *Decoder) Row(buf []types.Value) (prel.Row, []types.Value) {
	n := int(d.Uvarint())
	if d.err != nil || n > len(d.b) { // each value costs ≥ 1 byte
		d.fail(ErrTruncated)
		return prel.Row{}, buf
	}
	if cap(buf) < n {
		buf = make([]types.Value, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = d.Value()
	}
	sc := d.SC()
	return prel.Row{Tuple: buf, SC: sc}, buf
}

// Schema reads a relation schema.
func (d *Decoder) Schema() *schema.Schema {
	n := int(d.Uvarint())
	if d.err != nil || n > len(d.b) {
		d.fail(ErrTruncated)
		return nil
	}
	s := &schema.Schema{Columns: make([]schema.Column, n)}
	for i := range s.Columns {
		s.Columns[i].Table = d.String()
		s.Columns[i].Name = d.String()
		s.Columns[i].Kind = types.Kind(d.Byte())
	}
	k := int(d.Uvarint())
	if d.err != nil || k > len(d.b)+1 {
		d.fail(ErrTruncated)
		return nil
	}
	for i := 0; i < k; i++ {
		s.Key = append(s.Key, int(d.Uvarint()))
	}
	if d.err != nil {
		return nil
	}
	return s
}

// Settings reads the explicitly-set query options.
func (d *Decoder) Settings() engine.Settings {
	var s engine.Settings
	mask := d.Uvarint()
	for i, has := range settingsPresence(&s) {
		set := mask&(1<<i) != 0
		if has == nil && set {
			d.fail(fmt.Errorf("%w: reserved settings bit %d", ErrUnknownSetting, i))
			return s
		}
		if has != nil {
			*has = set
		}
	}
	if s.HasMode {
		s.Mode = decodeMode(d)
	}
	if s.HasTimeout {
		s.Timeout = time.Duration(d.Varint())
	}
	if s.HasMaxRows {
		s.MaxRows = int(d.Varint())
	}
	if s.HasMaxCells {
		s.MaxCells = int(d.Varint())
	}
	if s.HasMemoryBudget {
		s.MemoryBudget = d.Varint()
	}
	return s
}

// decodeMode reads a uvarint-coded evaluation mode and accepts it only if
// engine.Modes lists it, so a value this build does not define fails the
// decode instead of running as some other mode.
func decodeMode(d *Decoder) engine.Mode {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	for _, m := range engine.Modes() {
		if uint64(m) == v {
			return m
		}
	}
	d.fail(fmt.Errorf("%w: mode %d", ErrUnknownSetting, v))
	return 0
}

// Stats reads the execution counters, tolerating captures with fewer or
// more counters than this build knows (extra counters are skipped).
func (d *Decoder) Stats() exec.Stats {
	var s exec.Stats
	n := int(d.Uvarint())
	fields := statsFields(&s)
	for i := 0; i < n; i++ {
		v := d.Varint()
		if i < len(fields) {
			*fields[i] = int(v)
		}
	}
	return s
}

// Error reads a structured statement failure (never nil on a well-formed
// payload).
func (d *Decoder) Error() error {
	if d.Bool() {
		kind := exec.LimitKind(d.String())
		budget := d.Varint()
		observed := d.Varint()
		stats := d.Stats()
		if d.err != nil {
			return d.err
		}
		return exec.NewGuardError(kind, budget, observed, stats)
	}
	msg := d.String()
	if d.err != nil {
		return d.err
	}
	return errors.New(msg)
}
