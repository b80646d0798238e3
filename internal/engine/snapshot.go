package engine

import (
	"io"

	"prefdb/internal/catalog"
	"prefdb/internal/optimizer"
	"prefdb/internal/planner"
	"prefdb/internal/snapshot"
)

// Save serializes the database (schemas, keys, index definitions, rows) to
// w; restore it with Load.
func (db *DB) Save(w io.Writer) error {
	return snapshot.Save(db.cat, w)
}

// Load restores a database previously written by Save, rebuilding all
// indexes and statistics lazily. Options apply as in Open.
func Load(r io.Reader, opts ...OpenOption) (*DB, error) {
	cat, err := snapshot.Load(r)
	if err != nil {
		return nil, err
	}
	return openWith(cat, opts...), nil
}

func openWith(cat *catalog.Catalog, opts ...OpenOption) *DB {
	db := &DB{
		cat:      cat,
		pl:       planner.New(cat),
		opt:      optimizer.New(cat),
		Mode:     ModeGBU,
		Optimize: true,
		dicts:    newDictCache(),
	}
	for _, o := range opts {
		o(db)
	}
	return db
}
