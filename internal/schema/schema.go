// Package schema describes relation schemas: ordered, typed, qualified
// columns, primary keys, and the schema algebra used by joins and
// projections.
package schema

import (
	"fmt"
	"strings"

	"prefdb/internal/types"
)

// Column is one attribute of a relation schema.
type Column struct {
	// Table is the qualifier (base-table name or alias); may be empty for
	// computed columns.
	Table string
	// Name is the attribute name.
	Name string
	// Kind is the declared type.
	Kind types.Kind
}

// QualifiedName renders table.name, or just name when unqualified.
func (c Column) QualifiedName() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Schema is an ordered list of columns plus primary-key metadata.
type Schema struct {
	Columns []Column
	// Key holds the ordinal positions of the primary-key columns, in key
	// order. For derived relations (joins) this is the concatenation of the
	// input keys, as the paper's composite score-relation keys require.
	Key []int
}

// New builds a schema from columns with no key.
func New(cols ...Column) *Schema { return &Schema{Columns: cols} }

// WithKey returns the schema with the primary key set to the named columns.
// It panics if a key column does not exist (schemas are built by trusted
// code; the parser validates user input earlier).
func (s *Schema) WithKey(names ...string) *Schema {
	s.Key = s.Key[:0]
	for _, n := range names {
		idx := s.MustIndexOf(n)
		s.Key = append(s.Key, idx)
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// IndexOf resolves a (possibly qualified) column reference to its ordinal.
// Unqualified names match any table qualifier; the error reports ambiguity
// when more than one column matches.
func (s *Schema) IndexOf(table, name string) (int, error) {
	found := -1
	for i, c := range s.Columns {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if table != "" && !strings.EqualFold(c.Table, table) {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("schema: ambiguous column reference %q", Column{Table: table, Name: name}.QualifiedName())
		}
		found = i
	}
	if found < 0 {
		return -1, fmt.Errorf("schema: unknown column %q", Column{Table: table, Name: name}.QualifiedName())
	}
	return found, nil
}

// MustIndexOf resolves a column given as "name" or "table.name", panicking
// on failure. For internal plan construction only.
func (s *Schema) MustIndexOf(ref string) int {
	table, name := SplitRef(ref)
	idx, err := s.IndexOf(table, name)
	if err != nil {
		panic(err)
	}
	return idx
}

// SplitRef splits "table.name" into its parts; a bare "name" yields an
// empty table.
func SplitRef(ref string) (table, name string) {
	if i := strings.IndexByte(ref, '.'); i >= 0 {
		return ref[:i], ref[i+1:]
	}
	return "", ref
}

// Project returns a new schema containing the columns at the given ordinals,
// preserving any key columns that survive the projection (remapped).
func (s *Schema) Project(ordinals []int) *Schema {
	out := &Schema{Columns: make([]Column, len(ordinals))}
	remap := make(map[int]int, len(ordinals))
	for i, o := range ordinals {
		out.Columns[i] = s.Columns[o]
		if _, dup := remap[o]; !dup {
			remap[o] = i
		}
	}
	keyOK := len(s.Key) > 0
	for _, k := range s.Key {
		if _, ok := remap[k]; !ok {
			keyOK = false
			break
		}
	}
	if keyOK {
		for _, k := range s.Key {
			out.Key = append(out.Key, remap[k])
		}
	}
	return out
}

// Concat returns the schema of a product/join of s then o; the key is the
// composite of both keys (when both have one).
func (s *Schema) Concat(o *Schema) *Schema {
	out := &Schema{Columns: make([]Column, 0, len(s.Columns)+len(o.Columns))}
	out.Columns = append(out.Columns, s.Columns...)
	out.Columns = append(out.Columns, o.Columns...)
	if len(s.Key) > 0 && len(o.Key) > 0 {
		out.Key = append(out.Key, s.Key...)
		for _, k := range o.Key {
			out.Key = append(out.Key, k+len(s.Columns))
		}
	}
	return out
}

// Rename returns a copy of the schema with every column's table qualifier
// replaced by alias.
func (s *Schema) Rename(alias string) *Schema {
	out := &Schema{Columns: make([]Column, len(s.Columns)), Key: append([]int(nil), s.Key...)}
	for i, c := range s.Columns {
		c.Table = alias
		out.Columns[i] = c
	}
	return out
}

// Clone returns a deep copy.
func (s *Schema) Clone() *Schema {
	return &Schema{
		Columns: append([]Column(nil), s.Columns...),
		Key:     append([]int(nil), s.Key...),
	}
}

// EqualLayout reports whether two schemas have the same column kinds in the
// same order (union-compatibility).
func (s *Schema) EqualLayout(o *Schema) bool {
	if len(s.Columns) != len(o.Columns) {
		return false
	}
	for i := range s.Columns {
		if s.Columns[i].Kind != o.Columns[i].Kind {
			return false
		}
	}
	return true
}

// StoredKind reports whether a base-table column may be declared with kind
// k: INT, FLOAT, TEXT or BOOL.
func StoredKind(k types.Kind) bool {
	return k == types.KindInt || k == types.KindFloat || k == types.KindString || k == types.KindBool
}

// Coerce returns v as a cell of a column of the given kind. NULL and a
// value of that kind pass unchanged; the numeric kinds convert where
// lossless (INT to FLOAT, an integral FLOAT to INT). Any other value is an
// error. This is the one rule every write path applies: storage admits
// exactly the cells Coerce returns unchanged (CheckTuple), and SQL DML
// converts its values through it first.
func Coerce(v types.Value, kind types.Kind) (types.Value, error) {
	if v.IsNull() || v.Kind() == kind {
		return v, nil
	}
	switch {
	case kind == types.KindFloat && v.Kind() == types.KindInt:
		return types.Float(float64(v.AsInt())), nil
	case kind == types.KindInt && v.Kind() == types.KindFloat:
		f := v.AsFloat()
		if f == float64(int64(f)) {
			return types.Int(int64(f)), nil
		}
		return types.Value{}, fmt.Errorf("value %v is not an integer", v)
	default:
		return types.Value{}, fmt.Errorf("cannot store %s value in %s column", v.Kind(), kind)
	}
}

// CheckTuple returns an error unless tuple has one cell per column and
// every cell is NULL or of its column's declared kind: storage converts
// nothing, so a cell Coerce would change is rejected too.
func (s *Schema) CheckTuple(tuple []types.Value) error {
	if len(tuple) != len(s.Columns) {
		return fmt.Errorf("tuple arity %d does not match schema arity %d", len(tuple), len(s.Columns))
	}
	for i, v := range tuple {
		if k := s.Columns[i].Kind; !v.IsNull() && v.Kind() != k {
			return fmt.Errorf("column %s: cannot store %s value in %s column", s.Columns[i].QualifiedName(), v.Kind(), k)
		}
	}
	return nil
}

// HasKey reports whether a primary key is known.
func (s *Schema) HasKey() bool { return len(s.Key) > 0 }

// KeyOf extracts the key values from a tuple laid out by this schema.
func (s *Schema) KeyOf(tuple []types.Value) []types.Value {
	key := make([]types.Value, len(s.Key))
	for i, k := range s.Key {
		key[i] = tuple[k]
	}
	return key
}

// String renders the schema as (table.col TYPE, ...).
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.QualifiedName())
		b.WriteByte(' ')
		b.WriteString(c.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}
