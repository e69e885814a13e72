package match

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/core"
)

// Budget enforcement: Limit truncates the projected rows (true top-N
// under ORDER BY), MaxBindings aborts a join whose intermediate sets
// explode. Both are the admission price of serving untrusted queries
// over HTTP.

func TestMatchLimitTruncates(t *testing.T) {
	s := buildJoinStore(t, 6, 0) // 6-wide all-to-all layers: 36 rows per 2-hop
	rs, err := MatchContext(context.Background(), s, "(?a <http://x#p> ?b)", Options{Models: []string{"big"}, Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 10 || !rs.Truncated {
		t.Fatalf("rows = %d truncated = %v, want 10/true", rs.Len(), rs.Truncated)
	}
	// A limit above the result size must not mark truncation.
	rs, err = MatchContext(context.Background(), s, "(<http://x#n0_0> <http://x#p> ?b)", Options{Models: []string{"big"}, Limit: 100})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 6 || rs.Truncated {
		t.Fatalf("rows = %d truncated = %v, want 6/false", rs.Len(), rs.Truncated)
	}
}

func TestMatchLimitWithOrderByReturnsTopN(t *testing.T) {
	s := buildJoinStore(t, 5, 0)
	full, err := MatchContext(context.Background(), s, "(<http://x#n0_0> <http://x#p> ?b)", Options{
		Models: []string{"big"}, OrderBy: []string{"b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	top, err := MatchContext(context.Background(), s, "(<http://x#n0_0> <http://x#p> ?b)", Options{
		Models: []string{"big"}, OrderBy: []string{"b"}, Limit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if top.Len() != 2 || !top.Truncated {
		t.Fatalf("rows = %d truncated = %v, want 2/true", top.Len(), top.Truncated)
	}
	for i := 0; i < 2; i++ {
		want, _ := full.Get(i, "b")
		got, _ := top.Get(i, "b")
		if !got.Equal(want) {
			t.Fatalf("row %d = %v, want sorted prefix %v", i, got, want)
		}
	}
}

func TestMatchMaxBindingsAborts(t *testing.T) {
	s := buildJoinStore(t, 10, 0) // w⁴ = 10000 bindings by the last stage
	query := "(?a <http://x#p> ?b) (?b <http://x#p> ?c) (?c <http://x#p> ?d)"
	_, err := MatchContext(context.Background(), s, query, Options{Models: []string{"big"}, MaxBindings: 50})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget in chain", err)
	}
	// The same query with headroom completes.
	rs, err := MatchContext(context.Background(), s, query, Options{Models: []string{"big"}, MaxBindings: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 10000 {
		t.Fatalf("rows = %d, want 10000", rs.Len())
	}
}

// TestDistinctSetGrowsWithRows pins that DISTINCT sizes its duplicate set
// from the rows it emits, not from Limit: the server passes its 10 000-row
// cap on every query, so a DISTINCT query returning a handful of rows must
// cost about what the same query without DISTINCT costs.
func TestDistinctSetGrowsWithRows(t *testing.T) {
	s := buildJoinStore(t, 6, 0)
	const q = "(<http://x#n0_0> <http://x#p> ?b)"
	bytesPerQuery := func(distinct bool) uint64 {
		opts := Options{Models: []string{"big"}, Distinct: distinct, Limit: 10000}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			rs, err := MatchContext(context.Background(), s, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if rs.Len() != 6 {
				t.Fatalf("rows = %d, want 6", rs.Len())
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	plain, distinct := bytesPerQuery(false), bytesPerQuery(true)
	if distinct > plain+4<<10 {
		t.Fatalf("a 6-row DISTINCT query with Limit 10000 allocates %d bytes, the same query without DISTINCT %d: the set must grow with the rows, not be presized to the limit", distinct, plain)
	}
}

// TestEachStopsAtEmitError: an error from the row consumer stops the
// query, with and without ORDER BY, and comes back as is.
func TestEachStopsAtEmitError(t *testing.T) {
	s := buildJoinStore(t, 6, 0)
	stop := errors.New("consumer is full")
	for _, orderBy := range [][]string{nil, {"b"}} {
		rows := 0
		_, err := Each(context.Background(), s, "(?a <http://x#p> ?b)", Options{Models: []string{"big"}, OrderBy: orderBy},
			func([]string) {},
			func(_ *core.ReadTx, ids []int64) error {
				if rows++; rows == 3 {
					return stop
				}
				return nil
			})
		if err != stop || rows != 3 {
			t.Fatalf("order by %v: err = %v after %d rows, want the consumer's error after 3", orderBy, err, rows)
		}
	}
}
