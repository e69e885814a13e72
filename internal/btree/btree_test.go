package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intCmp(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func newIntTree() *Tree[int64] { return New(intCmp) }

func TestInsertGet(t *testing.T) {
	tr := newIntTree()
	if !tr.Insert(int64(10), 1) {
		t.Fatal("first insert returned false")
	}
	if tr.Insert(int64(10), 1) {
		t.Fatal("duplicate (key,id) insert returned true")
	}
	if !tr.Insert(int64(10), 2) {
		t.Fatal("same key, new id insert returned false")
	}
	got := tr.Get(int64(10))
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Get(10) = %v, want [1 2]", got)
	}
	if tr.Get(int64(11)) != nil {
		t.Fatalf("Get(11) = %v, want nil", tr.Get(int64(11)))
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
}

func TestContains(t *testing.T) {
	tr := newIntTree()
	for i := int64(0); i < 100; i += 2 {
		tr.Insert(i, i)
	}
	for i := int64(0); i < 100; i++ {
		want := i%2 == 0
		if got := tr.Contains(i); got != want {
			t.Fatalf("Contains(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestDelete(t *testing.T) {
	tr := newIntTree()
	const n = 2000
	for i := int64(0); i < n; i++ {
		tr.Insert(i, i)
	}
	if tr.Delete(int64(n+5), 0) {
		t.Fatal("delete of absent key returned true")
	}
	// Delete odd keys.
	for i := int64(1); i < n; i += 2 {
		if !tr.Delete(i, i) {
			t.Fatalf("Delete(%d) returned false", i)
		}
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", tr.Len(), n/2)
	}
	for i := int64(0); i < n; i++ {
		want := i%2 == 0
		if got := tr.Contains(i); got != want {
			t.Fatalf("after delete: Contains(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestDeleteAll(t *testing.T) {
	tr := newIntTree()
	const n = 5000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, v := range perm {
		tr.Insert(int64(v), int64(v))
	}
	for _, v := range rand.New(rand.NewSource(2)).Perm(n) {
		if !tr.Delete(int64(v), int64(v)) {
			t.Fatalf("Delete(%d) returned false", v)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tr.Len())
	}
	if tr.Height() != 1 {
		t.Fatalf("Height = %d after deleting everything, want 1", tr.Height())
	}
}

func TestAscendOrder(t *testing.T) {
	tr := newIntTree()
	perm := rand.New(rand.NewSource(3)).Perm(10000)
	for _, v := range perm {
		tr.Insert(int64(v), int64(v))
	}
	var got []int64
	tr.Ascend(func(k int64, _ int64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != len(perm) {
		t.Fatalf("visited %d entries, want %d", len(got), len(perm))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("Ascend did not visit keys in order")
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := newIntTree()
	for i := int64(0); i < 100; i++ {
		tr.Insert(i, i)
	}
	count := 0
	tr.Ascend(func(int64, int64) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("visited %d entries after early stop, want 7", count)
	}
}

func TestAscendRange(t *testing.T) {
	tr := newIntTree()
	for i := int64(0); i < 1000; i++ {
		tr.Insert(i, i)
	}
	ptr := func(v int64) *int64 { return &v }
	cases := []struct {
		lo, hi   *int64
		from, to int64 // inclusive expectation
	}{
		{ptr(10), ptr(20), 10, 20},
		{nil, ptr(5), 0, 5},
		{ptr(995), nil, 995, 999},
		{nil, nil, 0, 999},
		{ptr(500), ptr(500), 500, 500},
	}
	for _, c := range cases {
		var got []int64
		tr.AscendRange(c.lo, c.hi, func(k int64, _ int64) bool {
			got = append(got, k)
			return true
		})
		want := c.to - c.from + 1
		if int64(len(got)) != want {
			t.Fatalf("range [%v,%v]: got %d entries, want %d", c.lo, c.hi, len(got), want)
		}
		if got[0] != c.from || got[len(got)-1] != c.to {
			t.Fatalf("range [%v,%v]: got [%d..%d]", c.lo, c.hi, got[0], got[len(got)-1])
		}
	}
}

func TestAscendRangeEmpty(t *testing.T) {
	tr := newIntTree()
	for i := int64(0); i < 100; i += 10 {
		tr.Insert(i, i)
	}
	lo, hi := int64(11), int64(19)
	var got []int64
	tr.AscendRange(&lo, &hi, func(k int64, _ int64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 0 {
		t.Fatalf("empty range returned %v", got)
	}
}

func TestStringKeys(t *testing.T) {
	tr := New(func(a, b string) int {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	})
	words := []string{"pear", "apple", "orange", "banana", "kiwi"}
	for i, w := range words {
		tr.Insert(w, int64(i))
	}
	var got []string
	tr.Ascend(func(k string, _ int64) bool {
		got = append(got, k)
		return true
	})
	want := []string{"apple", "banana", "kiwi", "orange", "pear"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestQuickAgainstMap is a property test: after an arbitrary sequence of
// inserts and deletes, the tree contains exactly the same entries as a map
// model, in sorted order.
func TestQuickAgainstMap(t *testing.T) {
	f := func(ops []int16) bool {
		tr := newIntTree()
		model := map[int64]bool{}
		for _, op := range ops {
			k := int64(op) % 64 // force collisions
			if op%3 == 0 {
				delete(model, k)
				tr.Delete(k, k)
			} else {
				model[k] = true
				tr.Insert(k, k)
			}
		}
		if tr.Len() != len(model) {
			return false
		}
		prev := int64(-1 << 62)
		ok := true
		tr.Ascend(func(k int64, id int64) bool {
			if k <= prev || !model[k] || id != k {
				ok = false
				return false
			}
			prev = k
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRangeMatchesSort verifies AscendRange against sorting the model.
func TestQuickRangeMatchesSort(t *testing.T) {
	f := func(keys []int16, lo16, hi16 int16) bool {
		if lo16 > hi16 {
			lo16, hi16 = hi16, lo16
		}
		lo, hi := int64(lo16), int64(hi16)
		tr := newIntTree()
		model := map[int64]bool{}
		for _, k16 := range keys {
			k := int64(k16)
			tr.Insert(k, k)
			model[k] = true
		}
		var want []int64
		for k := range model {
			if k >= lo && k <= hi {
				want = append(want, k)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		var got []int64
		tr.AscendRange(&lo, &hi, func(k int64, _ int64) bool {
			got = append(got, k)
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestInsertUniqueAgainstMap drives InsertUnique, Insert and Delete over a
// small key space (so nodes split and merge around equal keys) and checks
// every InsertUnique verdict against a map model: a held key is refused
// with the id of an entry that holds it and changes nothing, a free key
// goes in. First must return the lowest id under a key, wherever in the
// tree the run of equal keys starts.
func TestInsertUniqueAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := newIntTree()
	model := map[int64]map[int64]bool{} // key → ids
	nextID := int64(0)
	for step := 0; step < 20000; step++ {
		k := rng.Int63n(400)
		switch op := rng.Intn(10); {
		case op < 5: // InsertUnique
			nextID++
			before := tr.Mutations()
			got, ok := tr.InsertUnique(k, nextID)
			if held := model[k]; len(held) > 0 {
				if ok || !held[got] {
					t.Fatalf("step %d: InsertUnique(%d) = (%d,%v), key held by %v", step, k, got, ok, held)
				}
				if tr.Mutations() != before {
					t.Fatalf("step %d: refused InsertUnique mutated the tree", step)
				}
			} else {
				if !ok || got != nextID {
					t.Fatalf("step %d: InsertUnique(%d) = (%d,%v) on a free key", step, k, got, ok)
				}
				model[k] = map[int64]bool{nextID: true}
			}
		case op < 7: // Insert: duplicates of a key under other ids
			nextID++
			tr.Insert(k, nextID)
			if model[k] == nil {
				model[k] = map[int64]bool{}
			}
			model[k][nextID] = true
		default: // Delete one id under k
			for id := range model[k] {
				if !tr.Delete(k, id) {
					t.Fatalf("step %d: Delete(%d,%d) = false", step, k, id)
				}
				delete(model[k], id)
				break
			}
		}
		want, any := int64(0), false
		for id := range model[k] {
			if !any || id < want {
				want, any = id, true
			}
		}
		if got, ok := tr.First(k); ok != any || (any && got != want) {
			t.Fatalf("step %d: First(%d) = (%d,%v), want (%d,%v)", step, k, got, ok, want, any)
		}
		if tr.Contains(k) != any {
			t.Fatalf("step %d: Contains(%d) = %v", step, k, !any)
		}
	}
	size := 0
	for _, ids := range model {
		size += len(ids)
	}
	if tr.Len() != size {
		t.Fatalf("Len = %d, model has %d", tr.Len(), size)
	}
}

// TestFirstAcrossNodes: a run of equal keys long enough to span several
// nodes and a separator; First must still find its lowest id.
func TestFirstAcrossNodes(t *testing.T) {
	tr := newIntTree()
	for id := int64(1000); id > 0; id-- {
		tr.Insert(5, id)
		tr.Insert(id+10, id) // neighbours on the right
	}
	if id, ok := tr.First(5); !ok || id != 1 {
		t.Fatalf("First(5) = (%d,%v), want (1,true)", id, ok)
	}
	if _, ok := tr.First(6); ok {
		t.Fatal("First(6) found an entry")
	}
	if got, ok := tr.InsertUnique(5, 0); ok || got < 1 || got > 1000 {
		t.Fatalf("InsertUnique(5) = (%d,%v) with the key held", got, ok)
	}
}

func TestMutationsCountsChanges(t *testing.T) {
	tr := newIntTree()
	tr.Insert(1, 1)
	tr.Insert(1, 1)       // duplicate: no change
	tr.InsertUnique(1, 2) // refused: no change
	tr.Delete(2, 2)       // absent: no change
	tr.Delete(1, 1)
	if got := tr.Mutations(); got != 2 {
		t.Fatalf("Mutations = %d, want 2 (one insert, one delete)", got)
	}
}

func TestHeightGrowth(t *testing.T) {
	tr := newIntTree()
	for i := int64(0); i < 100000; i++ {
		tr.Insert(i, i)
	}
	if h := tr.Height(); h < 2 || h > 5 {
		t.Fatalf("Height = %d for 100k sequential keys, want small logarithmic height", h)
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := newIntTree()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(int64(i), int64(i))
	}
}

func BenchmarkGet(b *testing.B) {
	tr := newIntTree()
	for i := int64(0); i < 1_000_000; i++ {
		tr.Insert(i, i)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Get(int64(i) % 1_000_000)
	}
}
