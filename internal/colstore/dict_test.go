package colstore

import (
	"fmt"
	"testing"

	"prefdb/internal/schema"
	"prefdb/internal/storage"
	"prefdb/internal/types"
)

func dictSchema() *schema.Schema {
	return schema.New(
		schema.Column{Table: "ev", Name: "id", Kind: types.KindInt},
		schema.Column{Table: "ev", Name: "grp", Kind: types.KindInt},
		schema.Column{Table: "ev", Name: "cat", Kind: types.KindString},
		schema.Column{Table: "ev", Name: "score", Kind: types.KindFloat},
	)
}

// fillDictHeap inserts n rows whose cat column cycles through four
// strings in stretches of 128 slots, so every segment meets the same
// strings, next to a sequential id, a grp column in stretches of 64 and
// a score column with NULLs.
func fillDictHeap(t *testing.T, h *storage.Heap, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		score := types.Value(types.Float(float64(i % 19)))
		if i%5 == 0 {
			score = types.Null()
		}
		_, err := h.Insert([]types.Value{
			types.Int(int64(i)),
			types.Int(int64(i / 64)),
			types.Str(fmt.Sprintf("c-%d", i/128%4)),
			score,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSharedDictCrossSegmentCodes pins the shared dictionary's contract:
// under one TableDict, segments built at different times give
// the same string the same code and publish snapshots of the same
// backing array — so code-vs-code equality across segments is string
// equality, and an older snapshot stays a prefix of a newer one.
func TestSharedDictCrossSegmentCodes(t *testing.T) {
	s := dictSchema()
	h := storage.NewHeap(s)
	fillDictHeap(t, h, 2*storage.PageSize*SegmentPages)
	dict := NewTableDict()
	st := Build(h, 1, dict)
	if len(st.Segments) != 2 {
		t.Fatalf("segments = %d, want 2", len(st.Segments))
	}
	a, b := &st.Segments[0].Cols[2], &st.Segments[1].Cols[2]
	if len(a.Dict) == 0 || len(b.Dict) == 0 {
		t.Fatal("string column lost its dictionary under the shared build")
	}
	if &a.Dict[0] != &b.Dict[0] {
		t.Fatal("segments of one build published different dictionary backings")
	}
	// Same string ⇒ same code, across segments.
	for slot := 0; slot < 512; slot++ {
		va := a.Value(slot)
		// Find a slot in segment 1 with the same string; by construction
		// the cycle repeats, so the same slot offset works.
		vb := b.Value(slot)
		if !va.Equal(vb) {
			continue
		}
		if ca, cb := a.Codes[slot], b.Codes[slot]; ca != cb {
			t.Fatalf("slot %d: %q coded %d in segment 0, %d in segment 1", slot, va, ca, cb)
		}
	}

	// A rebuild over a grown heap (new strings appear) keeps old codes:
	// the shared dictionary is append-only, so the earlier snapshot is a
	// prefix of the later one.
	for i := 0; i < storage.PageSize*SegmentPages; i++ {
		_, err := h.Insert([]types.Value{
			types.Int(int64(i)), types.Int(0), types.Str(fmt.Sprintf("late-%d", i/1024)), types.Float(0),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	st2 := Build(h, 2, dict)
	// Snapshots are taken per segment at encode time, so the segment that
	// saw the new strings publishes the grown dictionary.
	d2 := st2.Segments[len(st2.Segments)-1].Cols[2].Dict
	if len(d2) <= len(a.Dict) {
		t.Fatalf("rebuild dictionary has %d entries, want more than %d", len(d2), len(a.Dict))
	}
	for i, s := range a.Dict {
		if d2[i] != s {
			t.Fatalf("code %d remapped across builds: %q → %q", i, s, d2[i])
		}
	}
}

// TestSharedDictSnapshotImmutable pins the capacity clamp: interning new
// strings after a snapshot must not write into the published slice.
func TestSharedDictSnapshotImmutable(t *testing.T) {
	d := NewTableDict()
	d.intern(0, "a")
	d.intern(0, "b")
	snap := d.snapshot(0)
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries, want 2", len(snap))
	}
	for i := 0; i < 100; i++ {
		d.intern(0, fmt.Sprintf("later-%d", i))
	}
	if snap[0] != "a" || snap[1] != "b" {
		t.Fatalf("published snapshot mutated: %v", snap[:2])
	}
	if c := d.intern(0, "b"); c != 1 {
		t.Fatalf("re-interning %q gave code %d, want 1", "b", c)
	}
}
