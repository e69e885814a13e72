package ndm

import (
	"container/heap"
	"math/rand"
	"testing"
)

// boxedHeap is the container/heap min-heap minHeap replaced.
type boxedHeap []heapEntry[int]

func (h boxedHeap) Len() int            { return len(h) }
func (h boxedHeap) Less(i, j int) bool  { return h[i].key < h[j].key }
func (h boxedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x interface{}) { *h = append(*h, x.(heapEntry[int])) }
func (h *boxedHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// minHeap pops what container/heap pops, equal keys included, so an
// analysis that breaks ties by pop order (the spanning tree) answers as
// it did over container/heap.
func TestMinHeapPopsAsContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	var h minHeap[int]
	var ref boxedHeap
	for op := 0; op < 20000; op++ {
		if len(h) > 0 && rng.Intn(3) == 0 {
			k, v := h.pop()
			want := heap.Pop(&ref).(heapEntry[int])
			if k != want.key || v != want.val {
				t.Fatalf("op %d: popped (%g, %d), container/heap pops (%g, %d)", op, k, v, want.key, want.val)
			}
			continue
		}
		k := float64(rng.Intn(8)) // few keys: many ties
		h.push(k, op)
		heap.Push(&ref, heapEntry[int]{k, op})
	}
}
