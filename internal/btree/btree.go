// Package btree implements a generic in-memory B-tree ordered by a
// caller-supplied comparator. It is the index structure underlying every
// secondary, unique, and function-based index in the reldb engine (the
// reproduction's stand-in for Oracle's B-tree indexes).
//
// The tree maps keys to int64 payloads (row IDs). Duplicate keys are
// supported by treating (key, payload) as the effective key, mirroring how
// non-unique database indexes append the ROWID to the key.
package btree

// Comparator reports the ordering of two keys: negative if a < b, zero if
// equal, positive if a > b. It must define a total order.
type Comparator[K any] func(a, b K) int

const (
	// degree is the minimum number of children of an internal node.
	// Nodes hold between degree-1 and 2*degree-1 entries — except the
	// nodes on the right edge of the tree, which may hold fewer than
	// degree-1 (see splitChild); Delete refills one before it enters it.
	degree   = 32
	maxItems = 2*degree - 1
	minItems = degree - 1
)

// item is a single (key, rowID) entry.
type item[K any] struct {
	key K
	id  int64
}

type node[K any] struct {
	items    []item[K]
	children []*node[K] // nil for leaves
}

func (n *node[K]) leaf() bool { return n.children == nil }

// Tree is a B-tree of (key, id) entries ordered by the comparator and then
// by id. The zero value is not usable; call New.
type Tree[K any] struct {
	cmp  Comparator[K]
	root *node[K]
	size int
	muts uint64
}

// New returns an empty tree ordered by cmp.
func New[K any](cmp Comparator[K]) *Tree[K] {
	return &Tree[K]{cmp: cmp, root: newLeaf[K]()}
}

// newLeaf allocates a leaf with room for a full node, so filling it never
// regrows the entry array.
func newLeaf[K any]() *node[K] {
	return &node[K]{items: make([]item[K], 0, maxItems)}
}

// Len returns the number of entries in the tree.
func (t *Tree[K]) Len() int { return t.size }

// Mutations returns how many entries have been added or removed over the
// tree's life. It exists for tests and diagnostics (an update that leaves
// a key unchanged must not touch the tree).
func (t *Tree[K]) Mutations() uint64 { return t.muts }

// find returns the index of the first entry in n.items that is >= (key,
// id), and whether that entry is an exact match. With keyOnly the id is
// ignored: the index is that of the first entry whose key is >= key, and
// the match is on the key alone.
func (t *Tree[K]) find(n *node[K], key K, id int64, keyOnly bool) (int, bool) {
	lo, hi, found := 0, len(n.items), false
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		c := t.cmp(n.items[m].key, key)
		if c == 0 && !keyOnly {
			switch o := n.items[m].id; {
			case o < id:
				c = -1
			case o > id:
				c = 1
			}
		}
		if c < 0 {
			lo = m + 1
		} else {
			// The search ends on the first entry that is not smaller, and
			// probes it on the way, so an exact match is always seen here.
			hi, found = m, c == 0
		}
	}
	return lo, found
}

// Insert adds (key, id). It returns false if the exact (key, id) pair is
// already present, leaving the tree unchanged.
func (t *Tree[K]) Insert(key K, id int64) bool {
	_, ok := t.insert(key, id, false)
	return ok
}

// InsertUnique adds (key, id) unless some entry already has an equal key,
// in one descent. When one does, the tree is unchanged and InsertUnique
// returns that entry's id and false.
func (t *Tree[K]) InsertUnique(key K, id int64) (int64, bool) {
	return t.insert(key, id, true)
}

func (t *Tree[K]) insert(key K, id int64, unique bool) (int64, bool) {
	if len(t.root.items) == maxItems {
		old := t.root
		t.root = &node[K]{children: []*node[K]{old}}
		t.splitChild(t.root, 0, t.after(old, key, id))
	}
	// edge: n is on the right edge of the tree, nothing is to its right.
	n, edge := t.root, true
	for {
		i, found := t.find(n, key, id, unique)
		if found {
			return n.items[i].id, false
		}
		if n.leaf() {
			n.items = append(n.items, item[K]{})
			copy(n.items[i+1:], n.items[i:])
			n.items[i] = item[K]{key: key, id: id}
			t.size++
			t.muts++
			return id, true
		}
		if len(n.children[i].items) == maxItems {
			// A separator moves up to position i and may be the match or
			// change the side: search n again.
			t.splitChild(n, i, edge && i == len(n.items) && t.after(n.children[i], key, id))
			continue
		}
		n, edge = n.children[i], edge && i == len(n.items)
	}
}

// after reports whether (key, id) sorts after every entry of n itself.
func (t *Tree[K]) after(n *node[K], key K, id int64) bool {
	last := n.items[len(n.items)-1]
	c := t.cmp(last.key, key)
	return c < 0 || c == 0 && last.id < id
}

// splitChild splits the full parent.children[i] around one of its entries,
// which moves up into parent. The split is in the middle, except atRight:
// the child is on the right edge of the tree and the entry being inserted
// goes to its right end, so the child stays full and the new right node
// starts empty — keys that arrive in ascending order fill their nodes
// instead of leaving each one half empty behind them.
func (t *Tree[K]) splitChild(parent *node[K], i int, atRight bool) {
	child := parent.children[i]
	at := minItems
	if atRight {
		at = maxItems - 1
	}
	mid := child.items[at]
	right := newLeaf[K]()
	right.items = append(right.items, child.items[at+1:]...)
	if !child.leaf() {
		right.children = append([]*node[K](nil), child.children[at+1:]...)
		child.children = child.children[:at+1]
	}
	child.items = child.items[:at]

	parent.items = append(parent.items, item[K]{})
	copy(parent.items[i+1:], parent.items[i:])
	parent.items[i] = mid
	parent.children = append(parent.children, nil)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = right
}

// Delete removes (key, id). It returns false if the pair was not present.
func (t *Tree[K]) Delete(key K, id int64) bool {
	if !t.delete(t.root, item[K]{key: key, id: id}) {
		return false
	}
	if len(t.root.items) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	t.size--
	t.muts++
	return true
}

func (t *Tree[K]) delete(n *node[K], it item[K]) bool {
	i, found := t.find(n, it.key, it.id, false)
	if n.leaf() {
		if !found {
			return false
		}
		n.items = append(n.items[:i], n.items[i+1:]...)
		return true
	}
	if found {
		// Replace with predecessor from the left subtree, then delete the
		// predecessor from there.
		child := n.children[i]
		if len(child.items) > minItems {
			pred := t.max(child)
			n.items[i] = pred
			return t.delete(child, pred)
		}
		right := n.children[i+1]
		if len(right.items) > minItems {
			succ := t.min(right)
			n.items[i] = succ
			return t.delete(right, succ)
		}
		// Merge child, separator, and right sibling, then recurse.
		t.merge(n, i)
		return t.delete(child, it)
	}
	child := n.children[i]
	if len(child.items) <= minItems {
		t.rebalance(n, i)
		// Rebalancing may have moved the target; restart from n.
		return t.delete(n, it)
	}
	return t.delete(child, it)
}

// rebalance ensures n.children[i] has more than minItems entries by
// borrowing from a sibling or merging.
func (t *Tree[K]) rebalance(n *node[K], i int) {
	child := n.children[i]
	if i > 0 && len(n.children[i-1].items) > minItems {
		// Rotate right: move separator down, left sibling's max up.
		left := n.children[i-1]
		child.items = append([]item[K]{n.items[i-1]}, child.items...)
		n.items[i-1] = left.items[len(left.items)-1]
		left.items = left.items[:len(left.items)-1]
		if !left.leaf() {
			child.children = append([]*node[K]{left.children[len(left.children)-1]}, child.children...)
			left.children = left.children[:len(left.children)-1]
		}
		return
	}
	if i < len(n.children)-1 && len(n.children[i+1].items) > minItems {
		// Rotate left: move separator down, right sibling's min up.
		right := n.children[i+1]
		child.items = append(child.items, n.items[i])
		n.items[i] = right.items[0]
		right.items = right.items[1:]
		if !right.leaf() {
			child.children = append(child.children, right.children[0])
			right.children = right.children[1:]
		}
		return
	}
	if i == len(n.children)-1 {
		i--
	}
	t.merge(n, i)
}

// merge combines n.children[i], n.items[i], and n.children[i+1] into a
// single node at position i.
func (t *Tree[K]) merge(n *node[K], i int) {
	child, right := n.children[i], n.children[i+1]
	child.items = append(child.items, n.items[i])
	child.items = append(child.items, right.items...)
	if !child.leaf() {
		child.children = append(child.children, right.children...)
	}
	n.items = append(n.items[:i], n.items[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

func (t *Tree[K]) min(n *node[K]) item[K] {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.items[0]
}

func (t *Tree[K]) max(n *node[K]) item[K] {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.items[len(n.items)-1]
}

// Get returns the row IDs stored under key, in ascending order.
func (t *Tree[K]) Get(key K) []int64 {
	var ids []int64
	t.AscendRange(&key, &key, func(_ K, id int64) bool {
		ids = append(ids, id)
		return true
	})
	return ids
}

// First returns the smallest row ID stored under key, in one descent and
// without allocating.
func (t *Tree[K]) First(key K) (int64, bool) {
	var id int64
	found := false
	for n := t.root; ; {
		i, eq := t.find(n, key, 0, true)
		if eq {
			// Entries with the same key and a smaller id, if any, are in
			// the subtree to the left of this one.
			id, found = n.items[i].id, true
		}
		if n.leaf() {
			return id, found
		}
		n = n.children[i]
	}
}

// Contains reports whether at least one entry with the given key exists.
func (t *Tree[K]) Contains(key K) bool {
	_, ok := t.First(key)
	return ok
}

// Visitor is called with each (key, id) entry during iteration. Returning
// false stops the iteration.
type Visitor[K any] func(key K, id int64) bool

// Ascend visits every entry in ascending order.
func (t *Tree[K]) Ascend(fn Visitor[K]) {
	t.ascend(t.root, nil, nil, fn)
}

// AscendRange visits entries with lo <= key <= hi in ascending order. A
// nil bound pointer is unbounded on that side.
func (t *Tree[K]) AscendRange(lo, hi *K, fn Visitor[K]) {
	t.ascend(t.root, lo, hi, fn)
}

func (t *Tree[K]) ascend(n *node[K], lo, hi *K, fn Visitor[K]) bool {
	start := 0
	if lo != nil {
		start, _ = t.find(n, *lo, 0, true)
	}
	for i := start; i <= len(n.items); i++ {
		if !n.leaf() {
			if !t.ascend(n.children[i], lo, hi, fn) {
				return false
			}
		}
		if i == len(n.items) {
			break
		}
		if hi != nil && t.cmp(n.items[i].key, *hi) > 0 {
			return false
		}
		if !fn(n.items[i].key, n.items[i].id) {
			return false
		}
		// Entries before start are < lo; once we are iterating we no longer
		// need the lower bound for child descents to the right.
		lo = nil
	}
	return true
}

// Height returns the height of the tree (a single leaf has height 1).
// It exists for tests and diagnostics.
func (t *Tree[K]) Height() int {
	h, n := 1, t.root
	for !n.leaf() {
		h++
		n = n.children[0]
	}
	return h
}
