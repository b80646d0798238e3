//go:build prefdbdebug

// Package debug is prefdb's build-tagged runtime assertion layer: the
// invariants prefdbvet checks statically (DESIGN.md §11) have dynamic
// counterparts — selection vectors sorted, unique and in bounds; batch
// columns aligned; zone maps covering their segment's rows — that only
// a running query can confirm. Under the `prefdbdebug` build tag every
// assertion panics with a diagnostic on violation; in normal builds the
// package compiles to empty inlineable functions, so the hot paths pay
// nothing.
//
//	go test -tags prefdbdebug ./...
package debug

import (
	"fmt"

	"prefdb/internal/types"
)

// Enabled reports whether assertions are compiled in; guards let callers
// skip building expensive diagnostic arguments in normal builds.
const Enabled = true

// Assertf panics with the formatted message when cond is false.
func Assertf(cond bool, format string, args ...any) {
	if !cond {
		panic("prefdbdebug: " + fmt.Sprintf(format, args...))
	}
}

// SelValid panics unless sel is strictly increasing with every index in
// [0, n) — the selection-vector layout invariant of prel.Batch.
func SelValid(sel []int32, n int) {
	prev := int32(-1)
	for i, j := range sel {
		if j <= prev {
			panic(fmt.Sprintf("prefdbdebug: selection vector not strictly increasing at %d: %d after %d", i, j, prev))
		}
		if int(j) >= n {
			panic(fmt.Sprintf("prefdbdebug: selection index %d out of bounds (batch holds %d rows)", j, n))
		}
		prev = j
	}
}

// SameLen panics unless a == b, naming the columns that diverged.
func SameLen(what string, a, b int) {
	if a != b {
		panic(fmt.Sprintf("prefdbdebug: %s length mismatch: %d vs %d", what, a, b))
	}
}

// ZoneContains panics unless min ≤ v ≤ max under types.Compare — the
// zone-map soundness invariant of the columnar segment store: every live
// non-null value a scan surfaces must lie within its segment's published
// bounds, or pruning could drop rows a filter would keep.
func ZoneContains(min, max, v types.Value) {
	if c, ok := types.Compare(v, min); !ok || c < 0 {
		panic(fmt.Sprintf("prefdbdebug: zone-map violation: value %v below segment min %v", v, min))
	}
	if c, ok := types.Compare(v, max); !ok || c > 0 {
		panic(fmt.Sprintf("prefdbdebug: zone-map violation: value %v above segment max %v", v, max))
	}
}
