package exec

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"prefdb/internal/algebra"
	"prefdb/internal/catalog"
	"prefdb/internal/debug"
	"prefdb/internal/expr"
	"prefdb/internal/pref"
	"prefdb/internal/prel"
	"prefdb/internal/types"
)

// scoredValues returns valuesRel(n) with a pair on every third row, so a
// write into its ⟨S,C⟩ columns shows on scored and ⊥ rows alike.
func scoredValues(n int) *prel.PRelation {
	rel := valuesRel(n)
	for i := range rel.Rows {
		if i%3 == 0 {
			rel.Rows[i].SC = types.NewSC(0.25, 0.5)
		}
	}
	return rel
}

// idPref scores the rows of valuesRel with id >= min.
func idPref(name string, min int64, conf float64) pref.Preference {
	return pref.New(name, "v", expr.Cmp("id", expr.OpGe, types.Int(min)), pref.Linear("id", 0.001), conf)
}

// TestStrategiesNeverScoreCallerValues pins the ownership rule of in-place
// scoring: BU, GBU and FtP write ⟨S,C⟩ only into relations they created,
// so a prefer chain over a Values the caller built leaves that relation's
// pairs untouched, whatever its label — even the labels the strategies
// give their own temporaries. Every result matches the oracle.
func TestStrategiesNeverScoreCallerValues(t *testing.T) {
	cat := catalog.New()
	for _, label := range []string{"G", "R", "R_NP", "V"} {
		for _, strategy := range []Strategy{BU, GBU, FtP} {
			rel := scoredValues(3000)
			before := rel.Clone()
			plan := &algebra.Prefer{P: idPref("p2", 2000, 0.8), Input: &algebra.Prefer{
				P: idPref("p1", 1000, 0.9), Input: &algebra.Values{Rel: rel, Label: label}}}
			name := strategy.String() + " over " + label
			got, err := New(cat).Run(plan, strategy)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			mustMatchOracle(t, cat, plan, got, name)
			if diff := bitwiseDiff(before, rel); diff != "" {
				t.Fatalf("%s wrote into the caller's relation: %s", name, diff)
			}
			if &got.Rows[0] == &rel.Rows[0] {
				t.Fatalf("%s returned the caller's row slice", name)
			}
		}
	}
}

// TestGBUScoresOwnRelationInPlace pins the in-place half of the rule: over
// a two-λ chain, GBU materializes the first λ's result once, and the
// second λ writes its pairs into that relation and returns it — the same
// row slice, with no row allocated — while the result still matches the
// oracle. The bound holds with constant scores and with a scoring
// function (linear), whose batch evaluator keeps its argument columns
// across batches.
func TestGBUScoresOwnRelationInPlace(t *testing.T) {
	if debug.Enabled {
		t.Skip("prefdbdebug assertions allocate on every batch")
	}
	const n = 60_000
	scores := map[string]func(name string, min int64, conf float64) pref.Preference{
		"constant": func(name string, min int64, conf float64) pref.Preference {
			return pref.Constant(name, "v", expr.Cmp("id", expr.OpGe, types.Int(min)), 0.5, conf)
		},
		"linear": idPref,
	}
	for name, mk := range scores {
		t.Run(name, func(t *testing.T) {
			cat := catalog.New()
			input := &algebra.Values{Rel: scoredValues(n), Label: "V"}
			first := &algebra.Prefer{P: mk("p1", n/3, 0.9), Input: input}
			e := New(cat)
			g1, err := e.gbu(first)
			if err != nil {
				t.Fatal(err)
			}
			rel1, ok := g1.(*algebra.Values)
			if !ok || rel1.Rel.Len() != n {
				t.Fatalf("first λ gave %T, want a %d-row Values", g1, n)
			}
			rows1 := &rel1.Rel.Rows[0]
			second := &algebra.Prefer{P: mk("p2", 2*n/3, 0.8), Input: rel1}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			g2, err := e.gbu(second)
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			rel2 := g2.(*algebra.Values)
			if rel2.Rel != rel1.Rel || &rel2.Rel.Rows[0] != rows1 || rel2.Rel.Len() != n {
				t.Fatal("the second λ did not return the first λ's relation")
			}
			slice := uint64(n * unsafe.Sizeof(prel.Row{}))
			if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > slice/8 {
				t.Fatalf("the second λ allocated %d B, want far below the %d-byte row slice", alloc, slice)
			}
			full := &algebra.Prefer{P: second.P, Input: first}
			mustMatchOracle(t, cat, full, rel2.Rel, "gbu in place")
			// The scored pairs are the second λ's writes: rows past both
			// cut-offs carry both contributions.
			if last := rel2.Rel.Rows[n-1].SC; !last.Known || math.Abs(last.Conf-1.7) > 1e-9 {
				t.Fatalf("last row carries %v, want both preferences folded in", last)
			}
		})
	}
}
