package storage

import (
	"sync/atomic"

	"prefdb/internal/types"
)

// btreeOrder is the maximum number of keys per B+-tree node.
const btreeOrder = 64

// BTreeIndex is a B+-tree over a single column of a heap, supporting point
// and range lookups in key order. Duplicate keys are allowed.
//
// The tree is insert-only; deletions are handled by the heap's tombstones
// (lookups skip dead rows), matching the append-mostly usage of the engine.
type BTreeIndex struct {
	heap   *Heap
	col    int
	root   btreeNode
	height int
	size   int
	probes atomic.Int64 // prefdb:atomic
}

type btreeNode interface {
	// insert adds (key, id); when the node splits it returns the separator
	// key and the new right sibling, otherwise nil.
	insert(key types.Value, id RowID) (types.Value, btreeNode)
}

type btreeLeaf struct {
	keys []types.Value
	ids  []RowID
	next *btreeLeaf
}

type btreeInner struct {
	keys     []types.Value
	children []btreeNode
}

// NewBTreeIndex builds a B+-tree over column col of h from its current
// contents.
func NewBTreeIndex(h *Heap, col int) *BTreeIndex {
	ix := &BTreeIndex{heap: h, col: col, root: &btreeLeaf{}, height: 1}
	h.Scan(func(id RowID, tuple []types.Value) bool {
		ix.Add(id, tuple)
		return true
	})
	return ix
}

// Column returns the indexed column ordinal.
func (ix *BTreeIndex) Column() int { return ix.col }

// Len returns the number of indexed entries.
func (ix *BTreeIndex) Len() int { return ix.size }

// Height returns the tree height (leaf = 1), exposed for invariant tests.
func (ix *BTreeIndex) Height() int { return ix.height }

// Probes returns the number of lookups served.
func (ix *BTreeIndex) Probes() int { return int(ix.probes.Load()) }

// Add indexes a newly inserted tuple.
func (ix *BTreeIndex) Add(id RowID, tuple []types.Value) {
	key := tuple[ix.col]
	sep, right := ix.root.insert(key, id)
	if right != nil {
		ix.root = &btreeInner{keys: []types.Value{sep}, children: []btreeNode{ix.root, right}}
		ix.height++
	}
	ix.size++
}

// lowerBound returns the first index in keys whose key is >= k (or > k when
// strict), using the total order of types.Compare.
func lowerBound(keys []types.Value, k types.Value, strict bool) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		c, _ := types.Compare(keys[mid], k)
		if c < 0 || (strict && c == 0) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (l *btreeLeaf) insert(key types.Value, id RowID) (types.Value, btreeNode) {
	at := lowerBound(l.keys, key, true) // insert after duplicates: stable
	l.keys = append(l.keys, types.Value{})
	copy(l.keys[at+1:], l.keys[at:])
	l.keys[at] = key
	l.ids = append(l.ids, RowID{})
	copy(l.ids[at+1:], l.ids[at:])
	l.ids[at] = id
	if len(l.keys) <= btreeOrder {
		return types.Value{}, nil
	}
	mid := len(l.keys) / 2
	right := &btreeLeaf{
		keys: append([]types.Value(nil), l.keys[mid:]...),
		ids:  append([]RowID(nil), l.ids[mid:]...),
		next: l.next,
	}
	l.keys = l.keys[:mid]
	l.ids = l.ids[:mid]
	l.next = right
	return right.keys[0], right
}

func (n *btreeInner) insert(key types.Value, id RowID) (types.Value, btreeNode) {
	at := lowerBound(n.keys, key, true)
	sep, right := n.children[at].insert(key, id)
	if right == nil {
		return types.Value{}, nil
	}
	n.keys = append(n.keys, types.Value{})
	copy(n.keys[at+1:], n.keys[at:])
	n.keys[at] = sep
	n.children = append(n.children, nil)
	copy(n.children[at+2:], n.children[at+1:])
	n.children[at+1] = right
	if len(n.keys) <= btreeOrder {
		return types.Value{}, nil
	}
	mid := len(n.keys) / 2
	up := n.keys[mid]
	rightNode := &btreeInner{
		keys:     append([]types.Value(nil), n.keys[mid+1:]...),
		children: append([]btreeNode(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return up, rightNode
}

// findLeaf descends to the leaf that may contain k.
func (ix *BTreeIndex) findLeaf(k types.Value) *btreeLeaf {
	node := ix.root
	for {
		switch n := node.(type) {
		case *btreeLeaf:
			return n
		case *btreeInner:
			node = n.children[lowerBound(n.keys, k, true)]
		}
	}
}

// Lookup returns the RowIDs of live tuples whose indexed column equals key.
func (ix *BTreeIndex) Lookup(key types.Value) []RowID {
	var out []RowID
	ix.Range(key, key, true, true, func(id RowID) bool {
		out = append(out, id)
		return true
	})
	return out
}

// Range visits live RowIDs with key in the interval [lo, hi] (bounds
// optional via null Values meaning unbounded; loIncl/hiIncl select open or
// closed ends) in ascending key order. Rows with a NULL key are never
// visited: no comparison with NULL is true. The visitor returns false to
// stop.
func (ix *BTreeIndex) Range(lo, hi types.Value, loIncl, hiIncl bool, visit func(id RowID) bool) {
	ix.probes.Add(1)
	var leaf *btreeLeaf
	var start int
	if lo.IsNull() {
		leaf = ix.leftmostLeaf()
	} else {
		leaf = ix.findLeaf(lo)
		start = lowerBound(leaf.keys, lo, !loIncl)
	}
	for leaf != nil {
		for i := start; i < len(leaf.keys); i++ {
			k := leaf.keys[i]
			if k.IsNull() {
				continue // NULLs sort first; an unbounded lo starts on them
			}
			if !hi.IsNull() {
				c, _ := types.Compare(k, hi)
				if c > 0 || (c == 0 && !hiIncl) {
					return
				}
			}
			if _, ok := ix.heap.Get(leaf.ids[i]); !ok {
				continue
			}
			if !visit(leaf.ids[i]) {
				return
			}
		}
		leaf = leaf.next
		start = 0
	}
}

func (ix *BTreeIndex) leftmostLeaf() *btreeLeaf {
	node := ix.root
	for {
		switch n := node.(type) {
		case *btreeLeaf:
			return n
		case *btreeInner:
			node = n.children[0]
		}
	}
}

// Ascend visits all live entries in ascending key order.
func (ix *BTreeIndex) Ascend(visit func(key types.Value, id RowID) bool) {
	for leaf := ix.leftmostLeaf(); leaf != nil; leaf = leaf.next {
		for i, k := range leaf.keys {
			if _, ok := ix.heap.Get(leaf.ids[i]); !ok {
				continue
			}
			if !visit(k, leaf.ids[i]) {
				return
			}
		}
	}
}

// checkInvariants validates node fill, key ordering, and uniform leaf depth;
// it is exported to tests via export_test.go.
func (ix *BTreeIndex) checkInvariants() error {
	return checkNode(ix.root, ix.height, true)
}

func checkNode(node btreeNode, depthLeft int, isRoot bool) error {
	switch n := node.(type) {
	case *btreeLeaf:
		if depthLeft != 1 {
			return errDepth
		}
		for i := 1; i < len(n.keys); i++ {
			if c, _ := types.Compare(n.keys[i-1], n.keys[i]); c > 0 {
				return errOrder
			}
		}
		return nil
	case *btreeInner:
		if len(n.children) != len(n.keys)+1 {
			return errFanout
		}
		if !isRoot && len(n.keys) < btreeOrder/4 {
			return errUnderfull
		}
		for i := 1; i < len(n.keys); i++ {
			if c, _ := types.Compare(n.keys[i-1], n.keys[i]); c > 0 {
				return errOrder
			}
		}
		for _, ch := range n.children {
			if err := checkNode(ch, depthLeft-1, false); err != nil {
				return err
			}
		}
		return nil
	}
	return nil
}

type btreeErr string

func (e btreeErr) Error() string { return string(e) }

const (
	errDepth     = btreeErr("btree: leaves at unequal depth")
	errOrder     = btreeErr("btree: keys out of order")
	errFanout    = btreeErr("btree: children/keys arity mismatch")
	errUnderfull = btreeErr("btree: underfull inner node")
)
