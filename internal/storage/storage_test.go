package storage

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"prefdb/internal/schema"
	"prefdb/internal/types"
)

func intSchema() *schema.Schema {
	return schema.New(
		schema.Column{Table: "t", Name: "id", Kind: types.KindInt},
		schema.Column{Table: "t", Name: "v", Kind: types.KindInt},
	).WithKey("id")
}

func fill(t testing.TB, h *Heap, n int) []RowID {
	t.Helper()
	ids := make([]RowID, n)
	for i := 0; i < n; i++ {
		id, err := h.Insert([]types.Value{types.Int(int64(i)), types.Int(int64(i * 10))})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

func TestHeapInsertGet(t *testing.T) {
	h := NewHeap(intSchema())
	ids := fill(t, h, 1000)
	if h.Len() != 1000 {
		t.Fatalf("Len = %d", h.Len())
	}
	if h.Pages() != 1000/PageSize+1 {
		t.Errorf("Pages = %d", h.Pages())
	}
	for i, id := range ids {
		tuple, ok := h.Get(id)
		if !ok || tuple[0].AsInt() != int64(i) {
			t.Fatalf("Get(%v) = %v, %v", id, tuple, ok)
		}
	}
	if _, ok := h.Get(RowID{Page: 9999, Slot: 0}); ok {
		t.Error("Get of invalid page should fail")
	}
	if _, ok := h.Get(RowID{Page: 0, Slot: 9999}); ok {
		t.Error("Get of invalid slot should fail")
	}
}

func TestHeapArityCheck(t *testing.T) {
	h := NewHeap(intSchema())
	if _, err := h.Insert([]types.Value{types.Int(1)}); err == nil {
		t.Error("arity mismatch should error")
	}
}

// TestHeapRejectsWrongKind pins the heap's kind check: a cell must be
// NULL or of its column's declared kind, storage converts nothing (an INT
// is not admitted into a FLOAT column), and a rejected tuple leaves the
// heap as it was.
func TestHeapRejectsWrongKind(t *testing.T) {
	h := NewHeap(schema.New(
		schema.Column{Table: "t", Name: "id", Kind: types.KindInt},
		schema.Column{Table: "t", Name: "f", Kind: types.KindFloat},
	))
	if _, err := h.Insert([]types.Value{types.Int(1), types.Null()}); err != nil {
		t.Fatalf("NULL cell rejected: %v", err)
	}
	for _, tuple := range [][]types.Value{
		{types.Str("x"), types.Float(1)},
		{types.Int(2), types.Int(2)},
		{types.Bool(true), types.Float(1)},
	} {
		_, err := h.Insert(tuple)
		if err == nil {
			t.Fatalf("Insert(%v) admitted a wrong-kind cell", tuple)
		}
		if !strings.Contains(err.Error(), "storage: column t.") || !strings.Contains(err.Error(), "cannot store") {
			t.Errorf("Insert(%v) error %q does not name the column", tuple, err)
		}
	}
	if h.Len() != 1 || h.Pages() != 1 {
		t.Errorf("rejected inserts changed the heap: %d rows, %d pages", h.Len(), h.Pages())
	}
}

func TestHeapDeleteAndScan(t *testing.T) {
	h := NewHeap(intSchema())
	ids := fill(t, h, 10)
	if !h.Delete(ids[3]) {
		t.Fatal("Delete failed")
	}
	if h.Delete(ids[3]) {
		t.Error("double Delete should fail")
	}
	if h.Len() != 9 {
		t.Errorf("Len after delete = %d", h.Len())
	}
	if _, ok := h.Get(ids[3]); ok {
		t.Error("deleted row still visible")
	}
	var seen []int64
	h.Scan(func(_ RowID, tuple []types.Value) bool {
		seen = append(seen, tuple[0].AsInt())
		return true
	})
	if len(seen) != 9 {
		t.Fatalf("Scan saw %d rows", len(seen))
	}
	for _, v := range seen {
		if v == 3 {
			t.Error("Scan visited deleted row")
		}
	}
	// Early stop.
	count := 0
	h.Scan(func(RowID, []types.Value) bool {
		count++
		return count < 4
	})
	if count != 4 {
		t.Errorf("early-stop Scan visited %d", count)
	}
}

func TestHashIndexLookup(t *testing.T) {
	h := NewHeap(intSchema())
	for i := 0; i < 500; i++ {
		// v column has duplicates: i%50.
		if _, err := h.Insert([]types.Value{types.Int(int64(i)), types.Int(int64(i % 50))}); err != nil {
			t.Fatal(err)
		}
	}
	ix := NewHashIndex(h, []int{1})
	got := ix.Lookup([]types.Value{types.Int(7)})
	if len(got) != 10 {
		t.Fatalf("Lookup dup key = %d rows, want 10", len(got))
	}
	for _, id := range got {
		tuple, _ := h.Get(id)
		if tuple[1].AsInt() != 7 {
			t.Errorf("wrong tuple %v", tuple)
		}
	}
	if got := ix.Lookup([]types.Value{types.Int(777)}); len(got) != 0 {
		t.Errorf("missing key returned %d rows", len(got))
	}
	if ix.Probes() != 2 {
		t.Errorf("Probes = %d", ix.Probes())
	}
}

func TestHashIndexMaintainedOnInsertAndDelete(t *testing.T) {
	h := NewHeap(intSchema())
	ix := NewHashIndex(h, []int{0})
	id, _ := h.Insert([]types.Value{types.Int(1), types.Int(2)})
	ix.Add(id, []types.Value{types.Int(1), types.Int(2)})
	if len(ix.Lookup([]types.Value{types.Int(1)})) != 1 {
		t.Fatal("inserted key not found")
	}
	h.Delete(id)
	if len(ix.Lookup([]types.Value{types.Int(1)})) != 0 {
		t.Error("deleted row should not be returned")
	}
}

func TestHashIndexComposite(t *testing.T) {
	s := schema.New(
		schema.Column{Name: "a", Kind: types.KindInt},
		schema.Column{Name: "b", Kind: types.KindString},
	)
	h := NewHeap(s)
	h.Insert([]types.Value{types.Int(1), types.Str("x")})
	h.Insert([]types.Value{types.Int(1), types.Str("y")})
	h.Insert([]types.Value{types.Int(2), types.Str("x")})
	ix := NewHashIndex(h, []int{0, 1})
	if got := ix.Lookup([]types.Value{types.Int(1), types.Str("x")}); len(got) != 1 {
		t.Errorf("composite lookup = %d rows", len(got))
	}
}

func TestBTreeSortedAscend(t *testing.T) {
	h := NewHeap(intSchema())
	r := rand.New(rand.NewSource(1))
	want := make([]int64, 0, 2000)
	for i := 0; i < 2000; i++ {
		v := int64(r.Intn(500))
		h.Insert([]types.Value{types.Int(int64(i)), types.Int(v)})
		want = append(want, v)
	}
	ix := NewBTreeIndex(h, 1)
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 2000 {
		t.Errorf("Len = %d", ix.Len())
	}
	if ix.Height() < 2 {
		t.Errorf("expected multi-level tree, height = %d", ix.Height())
	}
	var got []int64
	ix.Ascend(func(k types.Value, _ RowID) bool {
		got = append(got, k.AsInt())
		return true
	})
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("Ascend visited %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Ascend[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestBTreePointLookup(t *testing.T) {
	h := NewHeap(intSchema())
	for i := 0; i < 1000; i++ {
		h.Insert([]types.Value{types.Int(int64(i)), types.Int(int64(i % 100))})
	}
	ix := NewBTreeIndex(h, 1)
	got := ix.Lookup(types.Int(42))
	if len(got) != 10 {
		t.Fatalf("Lookup = %d rows, want 10", len(got))
	}
	for _, id := range got {
		tuple, _ := h.Get(id)
		if tuple[1].AsInt() != 42 {
			t.Errorf("wrong tuple %v", tuple)
		}
	}
	if len(ix.Lookup(types.Int(4200))) != 0 {
		t.Error("missing key should return nothing")
	}
}

func TestBTreeRange(t *testing.T) {
	h := NewHeap(intSchema())
	for i := 0; i < 100; i++ {
		h.Insert([]types.Value{types.Int(int64(i)), types.Int(int64(i))})
	}
	ix := NewBTreeIndex(h, 1)
	collect := func(lo, hi types.Value, loIncl, hiIncl bool) []int64 {
		var out []int64
		ix.Range(lo, hi, loIncl, hiIncl, func(id RowID) bool {
			tuple, _ := h.Get(id)
			out = append(out, tuple[1].AsInt())
			return true
		})
		return out
	}
	if got := collect(types.Int(10), types.Int(13), true, true); len(got) != 4 || got[0] != 10 || got[3] != 13 {
		t.Errorf("[10,13] = %v", got)
	}
	if got := collect(types.Int(10), types.Int(13), false, false); len(got) != 2 || got[0] != 11 || got[1] != 12 {
		t.Errorf("(10,13) = %v", got)
	}
	if got := collect(types.Null(), types.Int(2), true, true); len(got) != 3 {
		t.Errorf("(-inf,2] = %v", got)
	}
	if got := collect(types.Int(97), types.Null(), true, true); len(got) != 3 {
		t.Errorf("[97,inf) = %v", got)
	}
	if got := collect(types.Null(), types.Null(), true, true); len(got) != 100 {
		t.Errorf("full range = %d", len(got))
	}
	// Early stop.
	n := 0
	ix.Range(types.Null(), types.Null(), true, true, func(RowID) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestBTreeSkipsDeleted(t *testing.T) {
	h := NewHeap(intSchema())
	var ids []RowID
	for i := 0; i < 50; i++ {
		id, _ := h.Insert([]types.Value{types.Int(int64(i)), types.Int(int64(i))})
		ids = append(ids, id)
	}
	ix := NewBTreeIndex(h, 1)
	h.Delete(ids[25])
	if len(ix.Lookup(types.Int(25))) != 0 {
		t.Error("deleted row visible through btree")
	}
	count := 0
	ix.Ascend(func(types.Value, RowID) bool { count++; return true })
	if count != 49 {
		t.Errorf("Ascend visited %d, want 49", count)
	}
}

func TestBTreeStrings(t *testing.T) {
	s := schema.New(schema.Column{Name: "name", Kind: types.KindString})
	h := NewHeap(s)
	words := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for _, w := range words {
		h.Insert([]types.Value{types.Str(w)})
	}
	ix := NewBTreeIndex(h, 0)
	var got []string
	ix.Ascend(func(k types.Value, _ RowID) bool {
		got = append(got, k.AsString())
		return true
	})
	want := []string{"alpha", "bravo", "charlie", "delta", "echo"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v", got)
		}
	}
	var ranged []string
	ix.Range(types.Str("b"), types.Str("d"), true, false, func(id RowID) bool {
		tuple, _ := h.Get(id)
		ranged = append(ranged, tuple[0].AsString())
		return true
	})
	if len(ranged) != 2 || ranged[0] != "bravo" || ranged[1] != "charlie" {
		t.Errorf("string range = %v", ranged)
	}
}

func TestBTreePropertySortedAndComplete(t *testing.T) {
	// Property: for any random multiset of int keys, the tree stays valid,
	// Ascend yields the sorted multiset, and every key is retrievable.
	f := func(keys []int16) bool {
		h := NewHeap(intSchema())
		for i, k := range keys {
			h.Insert([]types.Value{types.Int(int64(i)), types.Int(int64(k))})
		}
		ix := NewBTreeIndex(h, 1)
		if err := ix.CheckInvariants(); err != nil {
			return false
		}
		var got []int64
		ix.Ascend(func(k types.Value, _ RowID) bool {
			got = append(got, k.AsInt())
			return true
		})
		if len(got) != len(keys) {
			return false
		}
		want := make([]int64, len(keys))
		for i, k := range keys {
			want[i] = int64(k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		for _, k := range keys {
			if len(ix.Lookup(types.Int(int64(k)))) == 0 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRowIDString(t *testing.T) {
	if got := (RowID{Page: 2, Slot: 7}).String(); got != "2:7" {
		t.Errorf("String = %q", got)
	}
}
