package reldb

import "repro/internal/btree"

// maxIntKeyCols is the widest key stored in the packed layout.
const maxIntKeyCols = 4

// intKey is a packed index key in the form the index code passes around:
// the values of up to maxIntKeyCols NOT NULL NUMBER columns. Columns the
// index does not have are zero in every key and every bound.
type intKey [maxIntKeyCols]int64

// intCols are the widths a packed key is stored at: a tree entry is as
// wide as its index, so the one-column indexes (LINK_ID, VALUE_ID,
// START_NODE_ID, …) pay for one integer and a row ID, not four and one.
type intCols interface {
	[1]int64 | [2]int64 | [4]int64
}

func narrow[K intCols](k *intKey) (out K) {
	for i := 0; i < len(out); i++ {
		out[i] = k[i]
	}
	return out
}

func widen[K intCols](k K) (out intKey) {
	for i := 0; i < len(k); i++ {
		out[i] = k[i]
	}
	return out
}

func compareInts[K intCols](a, b K) int {
	for i := 0; i < len(a); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// packedTree is the tree of a packed index: one of three instantiations of
// btree.Tree, picked from the index's column count when it is created. The
// methods switch on the width rather than go through an interface so that
// bounds and callbacks stay on the caller's stack.
type packedTree struct {
	w1 *btree.Tree[[1]int64]
	w2 *btree.Tree[[2]int64]
	w4 *btree.Tree[[4]int64]
}

func newPackedTree(cols int) *packedTree {
	switch cols {
	case 1:
		return &packedTree{w1: btree.New(compareInts[[1]int64])}
	case 2:
		return &packedTree{w2: btree.New(compareInts[[2]int64])}
	}
	return &packedTree{w4: btree.New(compareInts[[4]int64])}
}

// insert adds (k, id); with unique set it refuses a key some entry already
// has and returns that entry's id and false (btree.Tree.InsertUnique).
func (p *packedTree) insert(k intKey, id RowID, unique bool) (RowID, bool) {
	switch {
	case p.w1 != nil:
		return insertPacked(p.w1, k, id, unique)
	case p.w2 != nil:
		return insertPacked(p.w2, k, id, unique)
	}
	return insertPacked(p.w4, k, id, unique)
}

func insertPacked[K intCols](t *btree.Tree[K], k intKey, id RowID, unique bool) (RowID, bool) {
	if unique {
		return t.InsertUnique(narrow[K](&k), id)
	}
	return id, t.Insert(narrow[K](&k), id)
}

func (p *packedTree) remove(k intKey, id RowID) {
	switch {
	case p.w1 != nil:
		p.w1.Delete(narrow[[1]int64](&k), id)
	case p.w2 != nil:
		p.w2.Delete(narrow[[2]int64](&k), id)
	default:
		p.w4.Delete(k, id)
	}
}

func (p *packedTree) first(k intKey) (RowID, bool) {
	switch {
	case p.w1 != nil:
		return p.w1.First(narrow[[1]int64](&k))
	case p.w2 != nil:
		return p.w2.First(narrow[[2]int64](&k))
	}
	return p.w4.First(k)
}

// ascend visits the entries with lo <= key <= hi in key order; a nil bound
// is open.
func (p *packedTree) ascend(lo, hi *intKey, fn func(k intKey, id RowID) bool) {
	switch {
	case p.w1 != nil:
		ascendPacked(p.w1, lo, hi, fn)
	case p.w2 != nil:
		ascendPacked(p.w2, lo, hi, fn)
	default:
		ascendPacked(p.w4, lo, hi, fn)
	}
}

func ascendPacked[K intCols](t *btree.Tree[K], lo, hi *intKey, fn func(k intKey, id RowID) bool) {
	var lb, hb *K
	if lo != nil {
		k := narrow[K](lo)
		lb = &k
	}
	if hi != nil {
		k := narrow[K](hi)
		hb = &k
	}
	t.AscendRange(lb, hb, func(k K, id int64) bool { return fn(widen(k), id) })
}

// counts returns the tree's Len and Mutations.
func (p *packedTree) counts() (int, uint64) {
	switch {
	case p.w1 != nil:
		return p.w1.Len(), p.w1.Mutations()
	case p.w2 != nil:
		return p.w2.Len(), p.w2.Mutations()
	}
	return p.w4.Len(), p.w4.Mutations()
}
