package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"prefdb/internal/engine"
	"prefdb/internal/exec"
	"prefdb/internal/prel"
	"prefdb/internal/schema"
	"prefdb/internal/types"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {0x01}, bytes.Repeat([]byte{0xAB}, 1<<16)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, FrameType(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		ft, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if ft != FrameType(i+1) {
			t.Fatalf("frame %d: type %#x, want %#x", i, ft, i+1)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload %d bytes, want %d", i, len(got), len(p))
		}
	}
}

func TestFrameOversize(t *testing.T) {
	if err := WriteFrame(new(bytes.Buffer), FrameQuery, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversize write accepted")
	}
	var buf bytes.Buffer
	buf.Write([]byte{byte(FrameQuery), 0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := ReadFrame(&buf); err == nil {
		t.Fatal("oversize length prefix accepted")
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := []types.Value{
		types.Null(),
		types.Int(0), types.Int(-1), types.Int(math.MaxInt64), types.Int(math.MinInt64),
		types.Float(0), types.Float(math.Copysign(0, -1)), types.Float(3.141592653589793),
		types.Float(math.Inf(1)), types.Float(math.SmallestNonzeroFloat64),
		types.Str(""), types.Str("héllo\x00world"),
		types.Bool(true), types.Bool(false),
	}
	var e Encoder
	for _, v := range vals {
		e.Value(v)
	}
	d := NewDecoder(e.Bytes())
	for i, want := range vals {
		got := d.Value()
		if !got.Equal(want) || got.Kind() != want.Kind() {
			t.Fatalf("value %d: got %v (kind %d), want %v (kind %d)", i, got, got.Kind(), want, want.Kind())
		}
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}

func TestFloatBitExact(t *testing.T) {
	// NaN and negative zero must survive bit-for-bit: Equal-style
	// comparisons cannot see the difference, the bit pattern can.
	for _, f := range []float64{math.NaN(), math.Copysign(0, -1), math.Nextafter(1, 2)} {
		var e Encoder
		e.Float(f)
		got := NewDecoder(e.Bytes()).Float()
		if math.Float64bits(got) != math.Float64bits(f) {
			t.Fatalf("float bits %016x round-tripped to %016x", math.Float64bits(f), math.Float64bits(got))
		}
	}
}

func TestRowSchemaRoundTrip(t *testing.T) {
	rows := []prel.Row{
		{Tuple: []types.Value{types.Int(1), types.Str("a")}, SC: types.NewSC(0.5, 0.9)},
		{Tuple: []types.Value{types.Int(2), types.Null()}, SC: types.Bottom()},
		{Tuple: nil, SC: types.NewSC(1, 1)},
	}
	sch := &schema.Schema{
		Columns: []schema.Column{
			{Table: "movies", Name: "id", Kind: types.KindInt},
			{Table: "movies", Name: "title", Kind: types.KindString},
		},
		Key: []int{0},
	}
	var e Encoder
	e.Schema(sch)
	for _, r := range rows {
		e.Row(r)
	}
	d := NewDecoder(e.Bytes())
	gotSch := d.Schema()
	if gotSch == nil || len(gotSch.Columns) != 2 || gotSch.Columns[1].QualifiedName() != sch.Columns[1].QualifiedName() ||
		len(gotSch.Key) != 1 || gotSch.Key[0] != 0 {
		t.Fatalf("schema round trip: %+v", gotSch)
	}
	var buf []types.Value
	for i, want := range rows {
		var got prel.Row
		got, buf = d.Row(buf)
		if len(got.Tuple) != len(want.Tuple) {
			t.Fatalf("row %d width %d, want %d", i, len(got.Tuple), len(want.Tuple))
		}
		for j := range got.Tuple {
			if !got.Tuple[j].Equal(want.Tuple[j]) {
				t.Fatalf("row %d col %d: %v, want %v", i, j, got.Tuple[j], want.Tuple[j])
			}
		}
		if got.SC.IsBottom() != want.SC.IsBottom() || got.SC.Score != want.SC.Score || got.SC.Conf != want.SC.Conf {
			t.Fatalf("row %d SC %+v, want %+v", i, got.SC, want.SC)
		}
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}

func TestSettingsRoundTrip(t *testing.T) {
	cases := []engine.Settings{
		{}, // nothing set
		engine.CollectSettings(engine.WithMode(engine.ModeNative)),
		engine.CollectSettings(
			engine.WithMode(engine.ModeFtP),
			engine.WithTimeout(90*time.Second), engine.WithMaxRows(10),
			engine.WithMaxCells(20), engine.WithMemoryBudget(1<<30),
		),
		// Explicit zero values must stay distinguishable from absent ones.
		engine.CollectSettings(engine.WithMaxRows(0), engine.WithMode(engine.ModeGBU)),
	}
	for i, want := range cases {
		var e Encoder
		e.Settings(want)
		got := NewDecoder(e.Bytes()).Settings()
		if got != want {
			t.Fatalf("case %d:\n  got  %+v\n  want %+v", i, got, want)
		}
	}
	// HasProfile travels as a mask bit with no payload.
	var e Encoder
	s := engine.Settings{HasProfile: true}
	e.Settings(s)
	if got := NewDecoder(e.Bytes()).Settings(); !got.HasProfile {
		t.Fatal("HasProfile lost in transit")
	}
	// The layout keeps its bit positions across the reserved bits 6 to 9:
	// memory budget is bit 5, profile bit 10.
	for bit, s := range map[uint64]engine.Settings{5: {HasMemoryBudget: true}, 10: {HasProfile: true}} {
		var e Encoder
		e.Settings(s)
		if mask := NewDecoder(e.Bytes()).Uvarint(); mask != 1<<bit {
			t.Fatalf("settings %+v encode mask %#x, want bit %d", s, mask, bit)
		}
	}
}

func TestStatsRoundTrip(t *testing.T) {
	want := exec.Stats{
		RowsScanned: 1, TuplesMaterialized: 2, CellsMaterialized: 3,
		NativeCalls: 4, IndexProbes: 5, PreferEvals: 6,
		ScoreRelationRows: 7, ScoreEvals: 8, CacheHits: 9, CacheMisses: 10,
		Batches: 11, SegmentsScanned: 12, SegmentsSkipped: 13,
		ColBatches: 14, RowsMaterialized: 15, JoinProbeBatches: 16,
	}
	var e Encoder
	e.Stats(want)
	if got := NewDecoder(e.Bytes()).Stats(); got != want {
		t.Fatalf("stats:\n  got  %+v\n  want %+v", got, want)
	}
	// Forward compatibility: a capture with extra trailing counters decodes.
	e2 := Encoder{}
	e2.Uvarint(18)
	for i := 0; i < 18; i++ {
		e2.Varint(int64(i))
	}
	d := NewDecoder(e2.Bytes())
	got := d.Stats()
	if d.Err() != nil || got.RowsScanned != 0 || got.JoinProbeBatches != 15 {
		t.Fatalf("forward decode: %+v err %v", got, d.Err())
	}
	// Backward compatibility: a 13-counter capture leaves the newer
	// counters at zero.
	e3 := Encoder{}
	e3.Uvarint(13)
	for i := 0; i < 13; i++ {
		e3.Varint(int64(i + 1))
	}
	d = NewDecoder(e3.Bytes())
	got = d.Stats()
	if d.Err() != nil || got.SegmentsSkipped != 13 || got.ColBatches != 0 || got.JoinProbeBatches != 0 {
		t.Fatalf("backward decode: %+v err %v", got, d.Err())
	}
}

// TestSettingsRejectUnknownEnums pins that a mode outside engine.Modes —
// or a mask setting a reserved bit (1, the retired worker count; 6, the
// retired score-cache mode; 7 and 8, the retired batch mode and batch
// size; 9, the retired colstore mode) — fails the decode with
// ErrUnknownSetting instead of being cast into some other option.
func TestSettingsRejectUnknownEnums(t *testing.T) {
	frame := func(s engine.Settings) []byte {
		var e Encoder
		e.Settings(s)
		return e.Bytes()
	}
	reserved := func(bit uint) []byte {
		var e Encoder
		e.Uvarint(1 << bit)
		e.Uvarint(1) // the payload an older build sent for the option
		return e.Bytes()
	}
	cases := map[string][]byte{
		"mode":       frame(engine.Settings{HasMode: true, Mode: 200}),
		"cache":      reserved(6),
		"colstore":   reserved(9),
		"workers":    reserved(1),
		"batch":      reserved(7),
		"batch-size": reserved(8),
	}
	for name, b := range cases {
		d := NewDecoder(b)
		d.Settings()
		if !errors.Is(d.Err(), ErrUnknownSetting) {
			t.Fatalf("%s: decode error = %v, want ErrUnknownSetting", name, d.Err())
		}
	}
}

func TestErrorRoundTrip(t *testing.T) {
	guard := func() error {
		return exec.NewGuardError(exec.LimitRows, 10, 11, exec.Stats{RowsScanned: 42})
	}
	var e Encoder
	e.Error(guard())
	got := NewDecoder(e.Bytes()).Error()
	if !errors.Is(got, exec.ErrResourceExhausted) {
		t.Fatalf("decoded guard error %v does not match ErrResourceExhausted", got)
	}
	var ge *exec.GuardError
	if !errors.As(got, &ge) {
		t.Fatalf("decoded error %v is not a *GuardError", got)
	}
	if ge.Limit != exec.LimitRows || ge.Budget != 10 || ge.Observed != 11 || ge.Stats.RowsScanned != 42 {
		t.Fatalf("guard fields lost: %+v", ge)
	}

	var e2 Encoder
	e2.Error(errors.New("plain failure"))
	got2 := NewDecoder(e2.Bytes()).Error()
	if got2 == nil || got2.Error() != "plain failure" {
		t.Fatalf("plain error round trip: %v", got2)
	}
}

func TestDecoderTruncation(t *testing.T) {
	// Every read primitive must fail cleanly, not panic, on short input.
	full := func() []byte {
		var e Encoder
		e.Uvarint(300)
		e.Varint(-5)
		e.Float(1.5)
		e.String("hello")
		e.Value(types.Str("world"))
		e.SC(types.NewSC(0.1, 0.2))
		e.Row(prel.Row{Tuple: []types.Value{types.Int(9)}, SC: types.Bottom()})
		e.Schema(&schema.Schema{Columns: []schema.Column{{Name: "x", Kind: types.KindInt}}})
		return e.Bytes()
	}()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		d.Uvarint()
		d.Varint()
		d.Float()
		_ = d.String()
		d.Value()
		d.SC()
		d.Row(nil)
		d.Schema()
		if d.Err() == nil {
			t.Fatalf("cut at %d of %d: no error", cut, len(full))
		}
		if !errors.Is(d.Err(), ErrTruncated) {
			// Unknown-kind errors are acceptable for cuts inside a Value.
			continue
		}
	}
	// And the complete payload decodes clean.
	d := NewDecoder(full)
	if d.Uvarint() != 300 || d.Varint() != -5 || d.Float() != 1.5 || d.String() != "hello" {
		t.Fatal("scalar decode mismatch")
	}
	d.Value()
	d.SC()
	d.Row(nil)
	d.Schema()
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}
