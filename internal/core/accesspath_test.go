package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rdfterm"
	"repro/internal/reldb"
)

// TestEveryIndexIsAnAccessPath is the audit behind the index set of
// rdf_link$, rdf_value$ and rdf_node$, kept as a standing check: an index
// costs memory on every row and a descent on every insert, so each must be
// read by something the store does in production. The test replays a log
// into a store, drives every kind of read and write against it, notes
// after each step which indexes' read counters moved, and fails for an
// index none of them touched. Run with -v for the whole matrix.
func TestEveryIndexIsAnAccessPath(t *testing.T) {
	uri := func(x string) rdfterm.Term { return rdfterm.NewURI("http://n/" + x) }
	num := func(lex string) rdfterm.Term { return rdfterm.NewTypedLiteral(lex, rdfterm.XSDInt) }

	// A store whose log has every record type in it: repeats and deletes
	// make UpdateLink and DeleteLink records, which replay finds by LINK_ID.
	logged, log := walStore(t)
	for _, m := range []string{"m", "other"} {
		if _, err := logged.CreateRDFModel(m, "", ""); err != nil {
			t.Fatal(err)
		}
	}
	var base TripleS
	for i := 0; i < 12; i++ {
		s, o := uri(fmt.Sprint("s", i%4)), num(fmt.Sprint("0", i%3))
		ts := mustInsert(t, logged, "m", s, uri(fmt.Sprint("p", i%2)), o)
		mustInsert(t, logged, "other", s, uri("p0"), uri(fmt.Sprint("o", i)))
		if i == 0 {
			base = ts
		}
	}
	mustInsert(t, logged, "m", uri("s0"), uri("p0"), num("00")) // COST 2
	if _, err := logged.Reify("m", base.TID); err != nil {
		t.Fatal(err)
	}
	doomed := mustInsert(t, logged, "m", uri("gone"), uri("p0"), num("09"))
	if err := logged.write(func() error { return logged.deleteByLinkIDLocked(doomed.TID) }); err != nil {
		t.Fatal(err)
	}

	var s *Store
	reg := obs.NewRegistry()
	tables := func() []*reldb.Table { return []*reldb.Table{s.links, s.values, s.nodes} }
	readers := map[string][]string{} // "table.index" → the steps that read it
	seen := map[string]reldb.IndexStats{}
	step := func(name string, do func()) {
		t.Helper()
		do()
		for _, tab := range tables() {
			for _, ix := range tab.Indexes() {
				key := tab.Name() + "." + ix.Name()
				if st := ix.Stats(); st != seen[key] {
					seen[key], readers[key] = st, append(readers[key], name)
				}
			}
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	step("WAL replay", func() {
		s = recoverLog(t, "", log.Path())
		s.SetMetrics(NewMetrics(reg))
	})
	sub, pred, obj := uri("s1"), uri("p1"), num("1")
	for name, pat := range map[string]Pattern{
		"Find(s)": {Subject: &sub}, "Find(s,p)": {Subject: &sub, Predicate: &pred}, "Find(s,p,o)": {Subject: &sub, Predicate: &pred, Object: &obj},
		"Find(s,o)": {Subject: &sub, Object: &obj}, "Find(p)": {Predicate: &pred}, "Find(p,o)": {Predicate: &pred, Object: &obj},
		"Find(o)": {Object: &obj}, "Find()": {},
	} {
		step(name, func() {
			ts, err := s.FindModelsCtx(context.Background(), []string{"m", "other"}, pat)
			must(err)
			for _, found := range ts {
				_, err := found.GetTriple()
				must(err)
			}
		})
	}
	mid, err := s.GetModelID("m")
	must(err)
	sid, _ := s.lookupValueIDLocked(sub)
	pid, _ := s.lookupValueIDLocked(pred)
	oid, _ := s.lookupValueIDLocked(obj)
	for _, bound := range [][3]bool{{true, true, true}, {true, true, false}, {true, false, true}, {true, false, false}, {false, true, true}, {false, true, false}, {false, false, true}, {false, false, false}} {
		ids := [3]int64{}
		for i, id := range [3]int64{sid, pid, oid} {
			if bound[i] {
				ids[i] = id
			}
		}
		pick := func(i int, t *rdfterm.Term) *rdfterm.Term {
			if bound[i] {
				return t
			}
			return nil
		}
		findMatchesCollect(t, s, Pattern{pick(0, &sub), pick(1, &pred), pick(2, &obj)}, ids)
		step(fmt.Sprintf("match%v", bound), func() {
			must(s.ReadView(context.Background(), func(tx *ReadTx) error {
				links, err := tx.CollectLinksLocked(nil, mid, ids[0], ids[1], ids[2])
				if err == nil && len(links) == 0 {
					err = fmt.Errorf("CollectLinksLocked%v matched nothing", ids)
				}
				for _, l := range links {
					if !tx.ContainsLinkLocked(mid, l.SID, l.PID, l.CanonID) {
						err = fmt.Errorf("ContainsLinkLocked denies link %d", l.TID)
					}
				}
				return err
			}))
		})
	}
	// (p, o) is the one shape with a choice of tree: MP when the
	// predicate is rare, OM when the object is. Either way Find and the
	// engine read the same tree and get the same links.
	for _, c := range []struct {
		name, tree     string
		ix             func(*Store) *reldb.Index
		preds, objects int // distinct predicates and objects over 24 links
	}{
		{"MP wins", "MP", func(s *Store) *reldb.Index { return s.linkMP }, 24, 1},
		{"OM wins", "OM", func(s *Store) *reldb.Index { return s.linkOM }, 1, 24},
	} {
		po := newStoreWithModel(t, "m")
		for i := 0; i < 24; i++ {
			mustInsert(t, po, "m", uri(fmt.Sprint("s", i)), uri(fmt.Sprint("p", i%c.preds)), uri(fmt.Sprint("o", i%c.objects)))
		}
		scans := c.ix(po).Stats().Scans
		p0, o0 := uri("p0"), uri("o0")
		pid, _ := po.lookupValueIDLocked(p0)
		oid, _ := po.lookupValueIDLocked(o0)
		findMatchesCollect(t, po, Pattern{Predicate: &p0, Object: &o0}, [3]int64{0, pid, oid})
		if got := c.ix(po).Stats().Scans - scans; got != 2 {
			t.Errorf("%s: Find and CollectLinksLocked scanned %s %d times, want 2", c.name, c.tree, got)
		}
	}

	step("IsReified", func() {
		if ok, err := s.IsReified("m", "http://n/s0", "http://n/p0", `"00"^^<`+rdfterm.XSDInt+`>`, nil); err != nil || !ok {
			t.Fatalf("IsReified = %v, %v", ok, err)
		}
	})
	step("LinkInfo", func() {
		if info, err := s.LinkInfo(base.TID); err != nil || info.Cost != 2 {
			t.Fatalf("LinkInfo = %+v, %v", info, err)
		}
	})
	net := mustNetwork(t, s)
	step("NDM out-links", func() {
		if len(outLinks(net, sid)) == 0 || !net.HasNode(sid) {
			t.Fatal("s1 has no out-links")
		}
	})
	step("NDM in-links", func() {
		if padded, _ := s.lookupValueIDLocked(num("01")); len(inLinks(net, padded)) == 0 {
			t.Fatal(`"01" has no in-links`)
		}
	})
	step("delete", func() { must(s.DeleteTriple("m", "http://n/s2", "http://n/p0", `"02"^^<`+rdfterm.XSDInt+`>`, nil)) })
	step("scrub", func() {
		report, err := s.ScrubPass(context.Background(), 4)
		if err != nil || len(report.Violations) > 0 || report.Links != s.TotalTriples() {
			t.Fatalf("scrub: %+v, %v", report, err)
		}
	})
	step("drop model", func() { must(s.DropRDFModel("other")) })
	assertInvariants(t, s)

	for _, tab := range tables() {
		if len(tab.Indexes()) == 0 {
			t.Errorf("%s has no index", tab.Name())
		}
		for _, ix := range tab.Indexes() {
			key := tab.Name() + "." + ix.Name()
			t.Logf("%-28s %+v read by %s", key, ix.Stats(), strings.Join(readers[key], ", "))
			if len(readers[key]) == 0 {
				t.Errorf("%s: nothing reads it", key)
			}
		}
	}

	// The same counts, as an operator sees them.
	var page bytes.Buffer
	must(reg.Snapshot().WriteProm(&page))
	exp, err := obs.ParseExposition(bytes.NewReader(page.Bytes()))
	must(err)
	exported := map[string]float64{}
	for _, sample := range exp.Samples {
		if strings.HasPrefix(sample.Name, "reldb_index_") {
			exported[sample.Name+"{"+sample.Labels+"}"] = sample.Value
		}
	}
	for _, tab := range []*reldb.Table{s.models, s.values, s.nodes, s.links, s.blanks} {
		for _, ix := range tab.Indexes() {
			labels := fmt.Sprintf(`{table=%q,index=%q}`, tab.Name(), ix.Name())
			st := ix.Stats()
			if got, ok := exported["reldb_index_probes_total"+labels]; !ok || got != float64(st.Probes) {
				t.Errorf("reldb_index_probes_total%s = %v (present %v), the index says %d", labels, got, ok, st.Probes)
			}
			if got, ok := exported["reldb_index_scans_total"+labels]; !ok || got != float64(st.Scans) {
				t.Errorf("reldb_index_scans_total%s = %v (present %v), the index says %d", labels, got, ok, st.Scans)
			}
		}
	}
	// A store without metrics registers nothing anywhere.
	New().SetMetrics(NewMetrics(nil))
	if bare := obs.NewRegistry().Snapshot(); len(bare.Families) != 0 {
		t.Errorf("an untouched registry has families %v", bare.Families)
	}
}

// findMatchesCollect checks that Store.Find and ReadTx.CollectLinksLocked,
// the two readers of the access-path table, return the same non-empty
// link set for one pattern in model "m" (ids are the pattern's resolved
// subject, predicate and canonical object IDs, 0 where unbound).
func findMatchesCollect(t *testing.T, s *Store, pat Pattern, ids [3]int64) {
	t.Helper()
	found, err := s.Find(context.Background(), "m", pat)
	mid, _ := s.GetModelID("m")
	var links []LinkIDs
	if err == nil {
		err = s.ReadView(context.Background(), func(tx *ReadTx) (err error) {
			links, err = tx.CollectLinksLocked(nil, mid, ids[0], ids[1], ids[2])
			return err
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	var want, got []int64
	for _, ts := range found {
		want = append(want, ts.TID)
	}
	for _, l := range links {
		got = append(got, l.TID)
	}
	slices.Sort(want)
	slices.Sort(got)
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Errorf("pattern %+v: Find links %v, CollectLinksLocked %v", pat, want, got)
	}
}
