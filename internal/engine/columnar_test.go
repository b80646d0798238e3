package engine

import (
	"context"
	"fmt"
	"testing"

	"prefdb/internal/colstore"
	"prefdb/internal/storage"
)

// TestColumnarIsPerTable pins the storage rule: a table is columnar once
// Table.ColStore has compacted it, and from then on its scans read the
// segment store — after an INSERT the next scan rebuilds the image and
// returns the new row. A table that was never compacted is scanned on the
// heap and gains no image.
func TestColumnarIsPerTable(t *testing.T) {
	n := colstore.SegmentPages*storage.PageSize + 10
	db := Open()
	nullKeyTable(t, db, "a", n, 1000)
	nullKeyTable(t, db, "b", n, 1000)
	a, err := db.Catalog().Table("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.Catalog().Table("b")
	if err != nil {
		t.Fatal(err)
	}
	a.ColStore()
	if _, err := db.ExecContext(context.Background(), fmt.Sprintf("INSERT INTO a VALUES (%d, 7)", n+1)); err != nil {
		t.Fatal(err)
	}
	if a.ColStoreIfBuilt() != nil {
		t.Fatal("the INSERT left the columnar image current")
	}

	res, err := db.QueryContext(context.Background(), "SELECT id FROM a WHERE k = 7")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SegmentsScanned == 0 {
		t.Fatalf("scan of the compacted table read no segments: %+v", res.Stats)
	}
	ids := map[int64]bool{}
	for _, r := range res.Rel.Rows {
		ids[r.Tuple[0].AsInt()] = true
	}
	if len(ids) != 2 || !ids[7] || !ids[int64(n+1)] {
		t.Fatalf("scan after INSERT returned ids %v, want 7 and %d", ids, n+1)
	}
	if a.ColStoreIfBuilt() == nil {
		t.Fatal("the scan did not rebuild the stale image")
	}

	res, err = db.QueryContext(context.Background(), "SELECT id FROM b WHERE k = 7")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel.Len() != 1 {
		t.Fatalf("heap scan returned %d rows, want 1", res.Rel.Len())
	}
	if res.Stats.SegmentsScanned != 0 || res.Stats.ColBatches != 0 {
		t.Fatalf("scan of a table never compacted read segments: %+v", res.Stats)
	}
	if b.Columnar() || b.ColStoreIfBuilt() != nil {
		t.Fatal("scanning a heap table gave it a columnar image")
	}
}
