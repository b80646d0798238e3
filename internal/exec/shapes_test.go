package exec

import (
	"testing"

	"prefdb/internal/algebra"
	"prefdb/internal/catalog"
	"prefdb/internal/datagen"
	"prefdb/internal/expr"
	"prefdb/internal/pref"
	"prefdb/internal/prel"
	"prefdb/internal/types"
)

// imdbCatalog is a mid-size load (5 000 movies, ~32 000 cast rows): large
// enough that joins, top-k and prefer chains span many batches.
func imdbCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	if _, err := datagen.LoadIMDB(cat, datagen.Config{Scale: 0.25, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	return cat
}

// planShapes pairs hash joins (join-*) and top-k above them with σ/λ-only
// shapes (prefer chains over scans, index-backed selects under prefers,
// skyline) that run in the one fused kernel.
func planShapes() map[string]algebra.Node {
	pRecency := pref.New("recent", "movies", expr.Cmp("year", expr.OpGe, types.Int(2000)), pref.Recency("year", 2011), 0.9)
	pShort := pref.New("short", "movies", expr.Cmp("duration", expr.OpLe, types.Int(120)), pref.Around("duration", 100), 0.6)
	pDrama := pref.New("drama", "genres", expr.Eq("genre", types.Str("Drama")), pref.Recency("year", 2011), 0.8)
	join := func() algebra.Node {
		return &algebra.Join{
			Cond:  expr.Bin{Op: expr.OpEq, L: expr.ColRef("movies.m_id"), R: expr.ColRef("genres.m_id")},
			Left:  &algebra.Scan{Table: "movies"},
			Right: &algebra.Scan{Table: "genres"},
		}
	}
	return map[string]algebra.Node{
		"prefer-chain": &algebra.Prefer{P: pShort, Input: &algebra.Prefer{P: pRecency, Input: &algebra.Scan{Table: "movies"}}},
		"select-prefer": &algebra.Prefer{P: pRecency, Input: &algebra.Select{
			Cond:  expr.Cmp("year", expr.OpGe, types.Int(1990)),
			Input: &algebra.Scan{Table: "movies"},
		}},
		"join-prefer-topk": &algebra.TopK{K: 50, By: algebra.ByScore,
			Input: &algebra.Prefer{P: pDrama, Input: join()}},
		"join-prefer-threshold": &algebra.Threshold{By: algebra.ByConf, Op: expr.OpGe, Value: 0.5,
			Input: &algebra.Prefer{P: pDrama, Input: join()}},
		"skyline": &algebra.Skyline{Input: &algebra.Prefer{P: pRecency, Input: &algebra.Scan{Table: "movies"}}},
	}
}

// mustIdentical fails unless the relations match exactly: same
// cardinality, same row order, same tuples, bit-identical ⟨S,C⟩ pairs.
func mustIdentical(t *testing.T, want, got *prel.PRelation, label string) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: cardinality %d, want %d", label, got.Len(), want.Len())
	}
	for i := range want.Rows {
		if !types.TupleEqual(want.Rows[i].Tuple, got.Rows[i].Tuple) {
			t.Fatalf("%s: row %d tuple = %v, want %v", label, i, got.Rows[i].Tuple, want.Rows[i].Tuple)
		}
		if want.Rows[i].SC != got.Rows[i].SC {
			t.Fatalf("%s: row %d SC = %v, want %v", label, i, got.Rows[i].SC, want.Rows[i].SC)
		}
	}
}
