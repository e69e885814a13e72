package btree

import (
	"fmt"
	"math/rand"
	"testing"
)

// shape is what checkShape learns about a tree on its way through it.
type shape struct {
	entries, leaves, leafEntries int
}

// checkShape verifies every structural invariant Insert, Delete and the
// iterators rely on: entries in (key, id) order across the whole tree,
// every leaf at the same depth, an internal node with one child more than
// it has entries, no node over maxItems, and no node under minItems — bar
// the root and the nodes on the right edge, which splitChild may leave
// short and Delete refills before it enters them.
func checkShape(t *testing.T, tr *Tree[int64]) shape {
	t.Helper()
	var sh shape
	var prev *item[int64]
	leafDepth := -1
	var walk func(n *node[int64], depth int, root, edge bool)
	walk = func(n *node[int64], depth int, root, edge bool) {
		if len(n.items) > maxItems {
			t.Fatalf("node with %d entries", len(n.items))
		}
		if !root && !edge && len(n.items) < minItems {
			t.Fatalf("node off the right edge with %d entries at depth %d", len(n.items), depth)
		}
		visit := func(it *item[int64]) {
			if prev != nil && (prev.key > it.key || prev.key == it.key && prev.id >= it.id) {
				t.Fatalf("(%d,%d) before (%d,%d)", prev.key, prev.id, it.key, it.id)
			}
			prev = it
			sh.entries++
		}
		if n.leaf() {
			if leafDepth < 0 {
				leafDepth = depth
			}
			if depth != leafDepth {
				t.Fatalf("leaf at depth %d, others at %d", depth, leafDepth)
			}
			sh.leaves++
			sh.leafEntries += len(n.items)
			for i := range n.items {
				visit(&n.items[i])
			}
			return
		}
		if len(n.children) != len(n.items)+1 {
			t.Fatalf("internal node: %d entries, %d children", len(n.items), len(n.children))
		}
		for i, c := range n.children {
			walk(c, depth+1, false, edge && i == len(n.items))
			if i < len(n.items) {
				visit(&n.items[i])
			}
		}
	}
	walk(tr.root, 0, true, true)
	if sh.entries != tr.Len() {
		t.Fatalf("%d entries in the tree, Len() = %d", sh.entries, tr.Len())
	}
	return sh
}

func insertOrders(n int) map[string][]int64 {
	asc, desc := make([]int64, n), make([]int64, n)
	for i := range asc {
		asc[i], desc[i] = int64(i), int64(n-1-i)
	}
	random := append([]int64(nil), asc...)
	rand.New(rand.NewSource(7)).Shuffle(n, func(i, j int) { random[i], random[j] = random[j], random[i] })
	// Runs of ascending keys that each start below the last: what an
	// index on (MODEL_ID, …) sees when models are loaded in turn.
	runs := make([]int64, 0, n)
	for r := 0; r < 4; r++ {
		for i := r; i < n; i += 4 {
			runs = append(runs, int64(i))
		}
	}
	return map[string][]int64{"ascending": asc, "descending": desc, "random": random, "runs": runs}
}

// TestRightEdgeSplitKeepsDeleteInvariants builds trees in ascending,
// descending, random and run-wise order — the first of which leaves short
// nodes all along the right edge — and takes them apart again in each of
// those orders, checking the shape as it goes and the contents against a
// map. Every key has two ids, so equal keys straddle nodes.
func TestRightEdgeSplitKeepsDeleteInvariants(t *testing.T) {
	const n = 3000
	for in, keys := range insertOrders(n) {
		for out, dels := range insertOrders(n) {
			t.Run(in+"/"+out, func(t *testing.T) {
				tr := newIntTree()
				model := map[[2]int64]bool{}
				for i, k := range keys {
					for id := int64(0); id < 2; id++ {
						if !tr.Insert(k, id) {
							t.Fatalf("Insert(%d,%d) = false", k, id)
						}
						model[[2]int64{k, id}] = true
					}
					if i%500 == 0 {
						checkShape(t, tr)
					}
				}
				checkShape(t, tr)
				for i, k := range dels {
					id := int64(i % 2)
					if !tr.Delete(k, id) {
						t.Fatalf("Delete(%d,%d) = false", k, id)
					}
					delete(model, [2]int64{k, id})
					if tr.Delete(k, id) {
						t.Fatalf("second Delete(%d,%d) = true", k, id)
					}
					if i%250 == 0 {
						checkShape(t, tr)
						// A key put back lands next to its twin.
						tr.Insert(k, id)
						tr.Delete(k, id)
					}
				}
				checkShape(t, tr)
				if tr.Len() != len(model) {
					t.Fatalf("Len() = %d, model has %d", tr.Len(), len(model))
				}
				tr.Ascend(func(k, id int64) bool {
					if !model[[2]int64{k, id}] {
						t.Fatalf("(%d,%d) in the tree, not in the model", k, id)
					}
					return true
				})
				for _, k := range dels { // the other id of every key, to empty
					for id := int64(0); id < 2; id++ {
						if tr.Delete(k, id) != model[[2]int64{k, id}] {
							t.Fatalf("Delete(%d,%d) disagrees with the model", k, id)
						}
					}
				}
				if sh := checkShape(t, tr); sh.entries != 0 || tr.Height() != 1 {
					t.Fatalf("emptied tree has %d entries, height %d", sh.entries, tr.Height())
				}
			})
		}
	}
}

// TestAscendingKeysFillLeaves: keys that arrive in ascending order — a
// sequence-fed primary key, or row IDs under one partition key — leave
// full leaves behind them, not half-empty ones.
func TestAscendingKeysFillLeaves(t *testing.T) {
	for _, dup := range []bool{false, true} {
		t.Run(fmt.Sprintf("sameKey=%v", dup), func(t *testing.T) {
			tr := newIntTree()
			for i := int64(0); i < 10_000; i++ {
				k := i
				if dup {
					k = 1 // one partition: the id alone ascends
				}
				tr.Insert(k, i)
			}
			sh := checkShape(t, tr)
			if fill := float64(sh.leafEntries) / float64(sh.leaves*maxItems); fill < 0.9 {
				t.Fatalf("leaf fill %.2f after 10k ascending inserts (%d leaves), want >= 0.90", fill, sh.leaves)
			}
		})
	}
}
