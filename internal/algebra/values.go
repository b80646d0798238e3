package algebra

import (
	"fmt"

	"prefdb/internal/prel"
)

// Values is a leaf node carrying an already-materialized p-relation. The
// execution engines (BU, GBU, FtP) splice intermediate results back into
// plans through it, mirroring the paper's temporary relations R_i / R_Pi.
type Values struct {
	Rel *prel.PRelation
	// Label names the intermediate for explain output.
	Label string
	// HoldsKinds records that every cell of Rel is NULL or of its
	// column's declared kind. The executor sets it on the temporaries it
	// drains from plans whose cells are known to be; a Values built
	// elsewhere leaves it false.
	HoldsKinds bool
}

// Children implements Node.
func (v *Values) Children() []Node { return nil }

// WithChildren implements Node.
func (v *Values) WithChildren(c []Node) Node {
	mustArity(c, 0)
	cp := *v
	return &cp
}

// String implements Node.
func (v *Values) String() string {
	label := v.Label
	if label == "" {
		label = "tmp"
	}
	return fmt.Sprintf("Values(%s, %d rows)", label, v.Rel.Len())
}
