package exec

import (
	"math/rand"
	"testing"

	"prefdb/internal/algebra"
	"prefdb/internal/catalog"
	"prefdb/internal/prel"
)

// RandomPlans returns the first n plans of the random plan generator
// (planGen) seeded with seed.
func RandomPlans(seed int64, n int) []algebra.Node {
	g := &planGen{r: rand.New(rand.NewSource(seed))}
	plans := make([]algebra.Node, n)
	for i := range plans {
		plans[i] = g.genPlan()
	}
	return plans
}

// GeneratorDBs returns the random plans' movie database twice: on the
// heap and compacted into columnar segments.
func GeneratorDBs(t testing.TB) (heap, columnar *catalog.Catalog) {
	fx := loadTwice(t, movieDB)
	return fx.heap, fx.col
}

// CheckAblations exposes checkAblations.
func CheckAblations(t *testing.T, cat *catalog.Catalog, plan algebra.Node,
	want func(Strategy) *prel.PRelation, same func(want, got *prel.PRelation) string) {
	t.Helper()
	checkAblations(t, cat, plan, want, same)
}
