package supervise

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rdfterm"
)

// Model-based whole-system check. A seeded generator drives Open and
// Mutate through every kind of mutation the store has (create and drop
// model, insert, batch, delete, reify, implied assertion), interleaved
// with checkpoints, restarts, crashes (a copy of the directory taken
// between commits, opened in place of the store) and injected WAL write
// and sync faults. After every step the store must agree with a trivial
// reference, the graph as a set of (model, s, p, o) tuples after Nguyen
// et al. (arXiv 1606.00480), each carrying its link's COST, CONTEXT and
// LINK_ID, and CheckInvariants must come back empty.
//
// A faulted mutation is indeterminate: its caller saw an error, but the
// store may have applied it (DESIGN.md §6's at-least-once wart). The
// checker waits for recovery, accepts whichever of the two outcomes the
// store shows, and holds the store to it from then on.

// quad is one triple of one model: the reference's unit.
type quad struct {
	model   string
	s, p, o rdfterm.Term
}

func (q quad) String() string { return fmt.Sprintf("%s %s %s in %s", q.s, q.p, q.o, q.model) }

// refLink is what the reference knows of a stored triple's link.
type refLink struct {
	cost int64
	ctx  string // core.ContextDirect or core.ContextIndirect
	id   int64  // LINK_ID, learned from the store when first seen; 0 before
}

// reference is the model the store is held to.
type reference struct {
	models map[string]bool
	links  map[quad]*refLink
	ids    map[int64]quad // every LINK_ID ever learned: DBUris are never reused
}

func newReference() *reference {
	return &reference{models: map[string]bool{}, links: map[quad]*refLink{}, ids: map[int64]quad{}}
}

func (r *reference) clone() *reference {
	c := newReference()
	for m := range r.models {
		c.models[m] = true
	}
	for q, l := range r.links {
		cp := *l
		c.links[q] = &cp
	}
	for id, q := range r.ids {
		c.ids[id] = q
	}
	return c
}

// insert stores one more reference to q: a new link, or a COST bump of
// the existing one. An insert as fact upgrades an implied link to D.
func (r *reference) insert(q quad, ctx string) {
	l := r.links[q]
	if l == nil {
		l = &refLink{ctx: ctx}
		r.links[q] = l
	}
	l.cost++
	if ctx == core.ContextDirect {
		l.ctx = ctx
	}
}

// reification is the one triple that reifies link id in a model (§5).
func reification(model string, id int64) quad {
	return quad{model, rdfterm.NewURI(core.DBUri(id)), rdfterm.NewURI(rdfterm.RDFType), rdfterm.NewURI(rdfterm.RDFStatement)}
}

// reifyOnce inserts the reification of link id into the model unless it is
// already there, as AssertAboutTriple and AssertImplied do.
func (r *reference) reifyOnce(model string, id int64) {
	if r.links[reification(model, id)] == nil {
		r.insert(reification(model, id), core.ContextDirect)
	}
}

// learn returns q's LINK_ID, asking the store for a link the reference
// has not seen yet (0 when the store does not hold q).
func (r *reference) learn(st *core.Store, q quad) int64 {
	l := r.links[q]
	if l.id == 0 {
		if ts, ok, err := st.IsTripleTerms(q.model, q.s, q.p, q.o); err == nil && ok {
			l.id = ts.TID
		}
	}
	return l.id
}

// mutation is one generated change: do runs it against the store, apply
// against the reference (after do, so it can learn new LINK_IDs) and
// returns the error the store must have refused it with, nil when the
// store must have taken it.
type mutation struct {
	kind  string // what the draw chose; every seed must run each
	name  string
	do    func(st *core.Store) error
	apply func(r *reference, st *core.Store) error
}

// arg renders a term for the string-argument constructors.
func arg(t rdfterm.Term) string {
	switch {
	case t.Kind == rdfterm.Literal:
		return strconv.Quote(t.Value)
	case strings.HasPrefix(t.Value, "/"): // a DBUri: no scheme, no brackets
		return t.Value
	}
	return "<" + t.Value + ">"
}

// gen draws the operations of one seed.
type gen struct {
	rng *rand.Rand
}

func (g *gen) model() string { return "m" + strconv.Itoa(g.rng.Intn(3)) }

func (g *gen) uri(prefix string, n int) rdfterm.Term {
	return rdfterm.NewURI("http://x#" + prefix + strconv.Itoa(g.rng.Intn(n)))
}

func (g *gen) triple() (s, p, o rdfterm.Term) {
	o = g.uri("o", 5)
	if g.rng.Intn(3) == 0 {
		o = rdfterm.NewLiteral("l" + strconv.Itoa(g.rng.Intn(4)))
	}
	return g.uri("s", 6), g.uri("p", 3), o
}

// pick returns a random stored triple, in model when it is not empty.
func (g *gen) pick(r *reference, model string) (quad, bool) {
	var qs []quad
	for q := range r.links {
		if model == "" || q.model == model {
			qs = append(qs, q)
		}
	}
	if len(qs) == 0 {
		return quad{}, false
	}
	sort.Slice(qs, func(i, j int) bool { return qs[i].String() < qs[j].String() })
	return qs[g.rng.Intn(len(qs))], true
}

// needModel is the refusal a mutation of an absent model must meet.
func needModel(r *reference, model string) error {
	if !r.models[model] {
		return core.ErrNoSuchModel
	}
	return nil
}

func (g *gen) insert(m string) mutation {
	s, p, o := g.triple()
	q := quad{m, s, p, o}
	return mutation{
		kind: "insert",
		name: "insert " + q.String(),
		do:   func(st *core.Store) error { _, err := st.InsertTerms(m, s, p, o); return err },
		apply: func(r *reference, _ *core.Store) error {
			if err := needModel(r, m); err != nil {
				return err
			}
			r.insert(q, core.ContextDirect)
			return nil
		},
	}
}

func (g *gen) batch() mutation {
	m := g.model()
	batch := make([]core.BatchTriple, 1+g.rng.Intn(6))
	for i := range batch {
		s, p, o := g.triple()
		batch[i] = core.BatchTriple{Subject: s, Predicate: p, Object: o, Implied: g.rng.Intn(4) == 0}
	}
	return mutation{
		kind: "batch",
		name: fmt.Sprintf("batch of %d in %s", len(batch), m),
		do: func(st *core.Store) error {
			_, err := st.InsertBatchCtx(context.Background(), m, batch)
			return err
		},
		apply: func(r *reference, _ *core.Store) error {
			if err := needModel(r, m); err != nil {
				return err
			}
			for _, bt := range batch {
				ctx := core.ContextDirect
				if bt.Implied {
					ctx = core.ContextIndirect
				}
				r.insert(quad{m, bt.Subject, bt.Predicate, bt.Object}, ctx)
			}
			return nil
		},
	}
}

func (g *gen) delete(r *reference) mutation {
	m := g.model()
	q, ok := g.pick(r, m)
	if !ok || g.rng.Intn(10) == 0 {
		s, p, o := g.triple()
		q = quad{m, s, p, o}
	}
	return mutation{
		kind: "delete",
		name: "delete " + q.String(),
		do:   func(st *core.Store) error { return st.DeleteTriple(m, arg(q.s), arg(q.p), arg(q.o), nil) },
		apply: func(r *reference, _ *core.Store) error {
			if err := needModel(r, m); err != nil {
				return err
			}
			l := r.links[q]
			if l == nil {
				return core.ErrNoSuchTriple
			}
			if l.cost--; l.cost == 0 {
				delete(r.links, q)
			}
			return nil
		},
	}
}

// reify reifies a stored triple of any model in a model, alone (Reify)
// or with an assertion about it (AssertAboutTriple).
func (g *gen) reify(r *reference) (mutation, bool) {
	base, ok := g.pick(r, "")
	if !ok {
		return mutation{}, false
	}
	m, id := g.model(), r.links[base].id
	if g.rng.Intn(2) == 0 {
		return mutation{
			kind: "reify",
			name: fmt.Sprintf("reify link %d (%s) in %s", id, base, m),
			do:   func(st *core.Store) error { _, err := st.Reify(m, id); return err },
			apply: func(r *reference, _ *core.Store) error {
				if err := needModel(r, m); err != nil {
					return err
				}
				r.insert(reification(m, id), core.ContextDirect)
				return nil
			},
		}, true
	}
	s, p := g.uri("s", 6), g.uri("said", 2)
	return mutation{
		kind: "assert about",
		name: fmt.Sprintf("assert %s %s about link %d (%s) in %s", s, p, id, base, m),
		do: func(st *core.Store) error {
			_, err := st.AssertAboutTriple(m, arg(s), arg(p), id, nil)
			return err
		},
		apply: func(r *reference, _ *core.Store) error {
			if err := needModel(r, m); err != nil {
				return err
			}
			r.reifyOnce(m, id)
			r.insert(quad{m, s, p, rdfterm.NewURI(core.DBUri(id))}, core.ContextDirect)
			return nil
		},
	}, true
}

// implied asserts a statement about a base triple that need not exist:
// the base goes in as CONTEXT I, reified, and the assertion as D.
func (g *gen) implied() mutation {
	m := g.model()
	rs, rp := g.uri("s", 6), g.uri("said", 2)
	s, p, o := g.triple()
	base := quad{m, s, p, o}
	return mutation{
		kind: "implied",
		name: fmt.Sprintf("implied %s %s about %s", rs, rp, base),
		do: func(st *core.Store) error {
			_, err := st.AssertImplied(m, arg(rs), arg(rp), arg(s), arg(p), arg(o), nil)
			return err
		},
		apply: func(r *reference, st *core.Store) error {
			if err := needModel(r, m); err != nil {
				return err
			}
			r.insert(base, core.ContextIndirect)
			id := r.learn(st, base)
			r.reifyOnce(m, id)
			r.insert(quad{m, rs, rp, rdfterm.NewURI(core.DBUri(id))}, core.ContextDirect)
			return nil
		},
	}
}

func (g *gen) create(r *reference) mutation {
	m := g.model()
	return mutation{
		kind: "create",
		name: "create " + m,
		do:   func(st *core.Store) error { _, err := st.CreateRDFModel(m, "", ""); return err },
		apply: func(r *reference, _ *core.Store) error {
			if r.models[m] {
				return core.ErrDuplicateModel
			}
			r.models[m] = true
			return nil
		},
	}
}

func (g *gen) drop() mutation {
	m := g.model()
	return mutation{
		kind: "drop",
		name: "drop " + m,
		do:   func(st *core.Store) error { return st.DropRDFModel(m) },
		apply: func(r *reference, _ *core.Store) error {
			if err := needModel(r, m); err != nil {
				return err
			}
			delete(r.models, m)
			for q := range r.links {
				if q.model == m {
					delete(r.links, q)
				}
			}
			return nil
		},
	}
}

// mutation draws one change. A model-less store mostly creates one.
func (g *gen) mutation(r *reference) mutation {
	if len(r.models) == 0 && g.rng.Intn(4) != 0 {
		return g.create(r)
	}
	switch n := g.rng.Intn(100); {
	case n < 30:
		return g.insert(g.model())
	case n < 45:
		return g.batch()
	case n < 65:
		return g.delete(r)
	case n < 77:
		if mu, ok := g.reify(r); ok {
			return mu
		}
		return g.insert(g.model())
	case n < 88:
		return g.implied()
	case n < 95:
		return g.create(r)
	default:
		return g.drop()
	}
}

// check compares the store with the reference, learning the LINK_IDs of
// links the reference has not seen yet, and returns the first
// disagreement.
func (r *reference) check(st *core.Store) error {
	names, err := st.ModelNames()
	if err != nil {
		return err
	}
	var want []string
	for m := range r.models {
		want = append(want, m)
	}
	sort.Strings(names)
	sort.Strings(want)
	if fmt.Sprint(names) != fmt.Sprint(want) {
		return fmt.Errorf("models %v, reference %v", names, want)
	}
	for _, m := range want {
		rows, err := st.Find(context.Background(), m, core.Pattern{})
		if err != nil {
			return err
		}
		seen := map[quad]bool{}
		for _, row := range rows {
			tr, err := row.GetTriple()
			if err != nil {
				return err
			}
			q := quad{m, tr.Subject, tr.Property, tr.Object}
			l := r.links[q]
			if l == nil {
				return fmt.Errorf("Find returns %s (link %d), which the reference lacks", q, row.TID)
			}
			if seen[q] {
				return fmt.Errorf("Find returns %s twice", q)
			}
			seen[q] = true
			if l.id == 0 {
				if old, reused := r.ids[row.TID]; reused {
					return fmt.Errorf("LINK_ID %d of %s was %s's", row.TID, q, old)
				}
				l.id, r.ids[row.TID] = row.TID, q
			}
			if l.id != row.TID {
				return fmt.Errorf("%s is link %d, was %d", q, row.TID, l.id)
			}
			info, err := st.LinkInfo(row.TID)
			if err != nil {
				return err
			}
			if info.Cost != l.cost || info.Context != l.ctx {
				return fmt.Errorf("%s: COST %d CONTEXT %s, reference %d %s", q, info.Cost, info.Context, l.cost, l.ctx)
			}
		}
		n := 0
		for q, l := range r.links {
			if q.model != m {
				continue
			}
			n++
			if !seen[q] {
				return fmt.Errorf("Find lacks %s", q)
			}
			got, err := st.IsReified(m, arg(q.s), arg(q.p), arg(q.o), nil)
			if err != nil {
				return err
			}
			if want := r.links[reification(m, l.id)] != nil; got != want {
				return fmt.Errorf("IsReified(%s) = %v, reference %v", q, got, want)
			}
		}
		if got, err := st.NumTriples(m); err != nil || got != n {
			return fmt.Errorf("NumTriples(%s) = %d, %v; reference %d", m, got, err, n)
		}
	}
	if errs := st.CheckInvariants(); len(errs) > 0 {
		return fmt.Errorf("CheckInvariants: %v (and %d more)", errs[0], len(errs)-1)
	}
	return nil
}

// copyTree copies the directory tree at src to dst: a crash image, when
// taken while no commit is in flight.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(to)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// The step kinds besides a plain mutation; each seed runs every one.
const (
	stepCheckpoint = "checkpoint"
	stepRestart    = "restart"
	stepCrash      = "crash"
	stepFault      = "fault"
)

// TestModelBasedSupervisor runs the checker over 20 seeds of 300 steps
// each, every seed opening its store in a directory of its own.
func TestModelBasedSupervisor(t *testing.T) {
	seeds, steps := 20, 300
	if testing.Short() {
		seeds, steps = 4, 150
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			runModelSeed(t, seed, steps)
		})
	}
}

func runModelSeed(t *testing.T, seed int64, steps int) {
	g := &gen{rng: rand.New(rand.NewSource(seed))}
	fo := &flakyOpener{}
	root := t.TempDir()
	cfg := Config{
		SnapshotPath: filepath.Join(root, "store.snap"),
		WALDir:       filepath.Join(root, "wal"),
		OpenDir:      fo.open,
		Backoff:      Backoff{Initial: time.Millisecond, Max: 5 * time.Millisecond, Multiplier: 2},
		Seed:         seed,
	}
	if seed%3 == 0 {
		cfg.SnapshotPath = "" // the snapshot lives inside the WAL directory
	}
	open := func() *Supervisor {
		sv, err := Open(cfg)
		if err != nil {
			t.Fatalf("seed %d: open: %v", seed, err)
		}
		return sv
	}
	sv := open()
	defer func() { sv.Close() }()

	r := newReference()
	ran := map[string]int{}
	var history []string
	fail := func(step int, format string, args ...any) {
		t.Helper()
		if len(history) > 6 {
			history = history[len(history)-6:]
		}
		t.Fatalf("seed %d step %d: %s\n  last steps:\n    %s", seed, step, fmt.Sprintf(format, args...), strings.Join(history, "\n    "))
	}
	healthy := func(step int) {
		deadline := time.Now().Add(5 * time.Second)
		for sv.State() != Healthy {
			if time.Now().After(deadline) {
				fail(step, "not Healthy after 5s: %+v", sv.Health())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	for step := 0; step < steps; step++ {
		kind := ""
		switch n := g.rng.Intn(100); {
		case n < 5:
			kind = stepCheckpoint
		case n < 8:
			kind = stepRestart
		case n < 11:
			kind = stepCrash
		case n < 16:
			kind = stepFault
		}
		// The last steps make up for any kind the draw left out.
		for i, k := range []string{stepCheckpoint, stepRestart, stepCrash, stepFault} {
			if step == steps-4+i && ran[k] == 0 {
				kind = k
			}
		}

		switch kind {
		case stepCheckpoint:
			history = append(history, kind)
			if err := sv.Checkpoint(context.Background()); err != nil {
				fail(step, "checkpoint: %v", err)
			}
		case stepRestart:
			history = append(history, kind)
			if err := sv.Close(); err != nil {
				fail(step, "close: %v", err)
			}
			sv = open()
		case stepCrash:
			history = append(history, kind)
			crashed := t.TempDir()
			if err := copyTree(root, crashed); err != nil {
				fail(step, "copying the directory: %v", err)
			}
			sv.Close()
			root = crashed
			cfg.WALDir = filepath.Join(root, "wal")
			if cfg.SnapshotPath != "" {
				cfg.SnapshotPath = filepath.Join(root, "store.snap")
			}
			sv = open()
		case stepFault:
			// The faulted mutation must write: an insert into a model
			// that exists, or the first model.
			var models []string
			for m := range r.models {
				models = append(models, m)
			}
			sort.Strings(models)
			mu := g.create(r)
			if len(models) > 0 {
				mu = g.insert(models[g.rng.Intn(len(models))])
			}
			what := "write"
			if g.rng.Intn(2) == 0 {
				fo.current().FailWrites(1)
			} else {
				what = "sync"
				fo.current().FailSyncs(1)
			}
			history = append(history, fmt.Sprintf("%s fault under %s", what, mu.name))
			err := sv.Mutate(mu.do)
			if !errors.Is(err, core.ErrDurability) {
				fail(step, "%s fault: mutation returned %v, want core.ErrDurability", what, err)
			}
			healthy(step)
			post := r.clone()
			if err := mu.apply(post, sv.Store()); err != nil {
				fail(step, "%s cannot apply: %v", mu.name, err)
			}
			applied := post.check(sv.Store())
			if applied == nil {
				r = post
			} else if err := r.clone().check(sv.Store()); err != nil {
				fail(step, "faulted mutation matches neither outcome:\n  applied: %v\n  not applied: %v", applied, err)
			}
		default:
			mu := g.mutation(r)
			history = append(history, mu.name)
			err := sv.Mutate(mu.do)
			if want := mu.apply(r, sv.Store()); want == nil && err != nil {
				fail(step, "%s: %v", mu.name, err)
			} else if want != nil && !errors.Is(err, want) {
				fail(step, "%s returned %v, want %v", mu.name, err, want)
			}
			kind = mu.kind
		}
		ran[kind]++
		if err := r.check(sv.Store()); err != nil {
			fail(step, "%v", err)
		}
	}
	for _, k := range []string{"create", "insert", "batch", "delete", "reify", "assert about", "implied", "drop"} {
		if ran[k] == 0 {
			t.Errorf("seed %d never ran a %s", seed, k)
		}
	}
	t.Logf("seed %d: %v, %d links in %d models at the end", seed, ran, len(r.links), len(r.models))
}
