package ndm

// minHeap is a binary min-heap of values keyed by a float64. It sifts
// exactly as container/heap does, so equal keys pop in the same order,
// but over a typed slice: a push stores its entry in place instead of
// boxing it into an interface.
type minHeap[T any] []heapEntry[T]

type heapEntry[T any] struct {
	key float64
	val T
}

func (h *minHeap[T]) push(key float64, val T) {
	*h = append(*h, heapEntry[T]{key, val})
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !(s[j].key < s[i].key) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// pop removes and returns the entry with the least key. The heap must
// not be empty.
func (h *minHeap[T]) pop() (float64, T) {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && s[r].key < s[j].key {
			j = r
		}
		if !(s[j].key < s[i].key) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	e := s[n]
	*h = s[:n]
	return e.key, e.val
}
