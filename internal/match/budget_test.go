package match

import (
	"context"
	"errors"
	"testing"
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
