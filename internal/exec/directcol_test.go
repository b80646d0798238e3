package exec

import (
	"fmt"
	"testing"
)

// TestDirectColRowsEquivalence is the acceptance contract of the
// direct-on-column path: across the full plan × strategy × batch-size
// grid, handing kernels borrowed column vectors with late materialization
// (a columnar table) must produce byte-identical rows, order and Stats —
// modulo the diagnostic counters — to the heap rows (the same data never
// compacted), the reference path.
func TestDirectColRowsEquivalence(t *testing.T) {
	fx := loadTwice(t, colstoreDB)
	for name, plan := range colstorePlans() {
		t.Run(name, func(t *testing.T) {
			for _, strategy := range Strategies() {
				for _, size := range []int{3, 1024} {
					label := fmt.Sprintf("%v size=%d", strategy, size)

					ref := New(fx.heap)
					ref.BatchSize = size
					want, err := ref.Run(plan, strategy)
					if err != nil {
						t.Fatalf("%s heap path: %v", label, err)
					}
					refStats := ref.Stats()
					if refStats.ColBatches != 0 || refStats.RowsMaterialized != 0 {
						t.Fatalf("%s: heap path counted columnar batches: %+v", label, refStats)
					}

					e := New(fx.col)
					e.BatchSize = size
					got, err := e.Run(plan, strategy)
					if err != nil {
						t.Fatalf("%s direct path: %v", label, err)
					}

					mustIdentical(t, want, got, label)
					gotStats := e.Stats()
					if gotStats.SegmentsScanned == 0 {
						t.Fatalf("%s: direct path read no segments: %+v", label, gotStats)
					}
					zeroDiagnostics(&refStats)
					zeroDiagnostics(&gotStats)
					if refStats != gotStats {
						t.Fatalf("%s: direct stats %+v, want %+v", label, gotStats, refStats)
					}
				}
			}
		})
	}
}

// TestDirectColLateMaterialization pins the shape claim behind the direct
// path: on a selective plan the scan stays columnar (ColBatches > 0) and
// only the rows that survive the filter ever cross the materialization
// boundary, so RowsMaterialized is a small fraction of RowsScanned.
func TestDirectColLateMaterialization(t *testing.T) {
	cat := compacted(t, colstoreDB(t))
	// The executor is single-worker; the subtest keeps that case's name.
	t.Run("workers=1", func(t *testing.T) {
		e := New(cat)
		if _, err := e.Run(colstorePlans()["prune-low-sel"], Native); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if st.ColBatches == 0 {
			t.Fatalf("direct scan produced no columnar batches: %+v", st)
		}
		if st.RowsMaterialized == 0 {
			t.Fatalf("survivors never crossed the materialization boundary: %+v", st)
		}
		if st.RowsMaterialized*10 > st.RowsScanned {
			t.Fatalf("late materialization did not engage: materialized %d of %d scanned",
				st.RowsMaterialized, st.RowsScanned)
		}
	})
}
