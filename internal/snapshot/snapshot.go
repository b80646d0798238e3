// Package snapshot serializes a whole database (schemas, primary keys,
// index definitions and rows) to a stream and restores it, so catalogs
// survive process restarts and generated benchmark datasets can be reused.
// The format is a gob-encoded snapshot; indexes are rebuilt on load.
package snapshot

import (
	"encoding/gob"
	"fmt"
	"io"

	"prefdb/internal/catalog"
	"prefdb/internal/schema"
	"prefdb/internal/storage"
	"prefdb/internal/types"
)

// formatVersion guards against decoding snapshots written by incompatible
// versions.
const formatVersion = 1

type dbDTO struct {
	Version int
	Tables  []tableDTO
}

type tableDTO struct {
	Name     string
	Columns  []colDTO
	Key      []string
	HashIdx  []string
	BTreeIdx []string
	Rows     [][]valDTO
}

type colDTO struct {
	Name string
	Kind uint8
}

type valDTO struct {
	K uint8
	I int64
	F float64
	S string
}

func encodeValue(v types.Value) valDTO {
	switch v.Kind() {
	case types.KindInt:
		return valDTO{K: uint8(types.KindInt), I: v.AsInt()}
	case types.KindFloat:
		return valDTO{K: uint8(types.KindFloat), F: v.AsFloat()}
	case types.KindString:
		return valDTO{K: uint8(types.KindString), S: v.AsString()}
	case types.KindBool:
		var i int64
		if v.AsBool() {
			i = 1
		}
		return valDTO{K: uint8(types.KindBool), I: i}
	default:
		return valDTO{K: uint8(types.KindNull)}
	}
}

func decodeValue(d valDTO) (types.Value, error) {
	switch types.Kind(d.K) {
	case types.KindNull:
		return types.Null(), nil
	case types.KindInt:
		return types.Int(d.I), nil
	case types.KindFloat:
		return types.Float(d.F), nil
	case types.KindString:
		return types.Str(d.S), nil
	case types.KindBool:
		return types.Bool(d.I != 0), nil
	default:
		return types.Value{}, fmt.Errorf("snapshot: unknown value kind %d", d.K)
	}
}

// Save writes the catalog's full contents to w.
func Save(cat *catalog.Catalog, w io.Writer) error {
	dto := dbDTO{Version: formatVersion}
	for _, name := range cat.Tables() {
		t, err := cat.Table(name)
		if err != nil {
			return err
		}
		s := t.Schema()
		td := tableDTO{
			Name:     name,
			HashIdx:  t.HashIndexColumns(),
			BTreeIdx: t.BTreeIndexColumns(),
		}
		for _, c := range s.Columns {
			td.Columns = append(td.Columns, colDTO{Name: c.Name, Kind: uint8(c.Kind)})
		}
		for _, k := range s.Key {
			td.Key = append(td.Key, s.Columns[k].Name)
		}
		td.Rows = make([][]valDTO, 0, t.Len())
		t.Heap.Scan(func(_ storage.RowID, tuple []types.Value) bool {
			row := make([]valDTO, len(tuple))
			for i, v := range tuple {
				row[i] = encodeValue(v)
			}
			td.Rows = append(td.Rows, row)
			return true
		})
		dto.Tables = append(dto.Tables, td)
	}
	return gob.NewEncoder(w).Encode(dto)
}

// Load restores a catalog from a snapshot stream, rebuilding all indexes.
// A column declared outside INT, FLOAT, TEXT and BOOL, or a cell whose
// kind disagrees with its column, fails the whole load with an error
// naming the table (and row) and the column; no catalog is returned.
func Load(r io.Reader) (*catalog.Catalog, error) {
	var dto dbDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("snapshot: decode: %w", err)
	}
	if dto.Version != formatVersion {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (want %d)", dto.Version, formatVersion)
	}
	cat := catalog.New()
	for _, td := range dto.Tables {
		cols := make([]schema.Column, len(td.Columns))
		for i, c := range td.Columns {
			cols[i] = schema.Column{Name: c.Name, Kind: types.Kind(c.Kind)}
		}
		s := schema.New(cols...)
		for _, k := range td.Key {
			idx, err := s.IndexOf(schema.SplitRef(k))
			if err != nil {
				return nil, fmt.Errorf("snapshot: table %s: key: %w", td.Name, err)
			}
			s.Key = append(s.Key, idx)
		}
		t, err := cat.CreateTable(td.Name, s)
		if err != nil {
			return nil, fmt.Errorf("snapshot: table %s: %w", td.Name, err)
		}
		for ri, row := range td.Rows {
			tuple := make([]types.Value, len(row))
			for i, d := range row {
				v, err := decodeValue(d)
				if err != nil {
					return nil, fmt.Errorf("snapshot: table %s row %d: %w", td.Name, ri, err)
				}
				tuple[i] = v
			}
			if err := t.Insert(tuple); err != nil {
				return nil, fmt.Errorf("snapshot: table %s row %d: %w", td.Name, ri, err)
			}
		}
		// Rebuild indexes after rows so each build is a single pass.
		for _, c := range td.HashIdx {
			if err := cat.CreateHashIndex(td.Name, c); err != nil {
				return nil, err
			}
		}
		for _, c := range td.BTreeIdx {
			if err := cat.CreateBTreeIndex(td.Name, c); err != nil {
				return nil, err
			}
		}
	}
	return cat, nil
}
