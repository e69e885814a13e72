package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"

	"repro/internal/rdfterm"
	"repro/internal/uniprot"
)

// opKind names one shape of request. The ladder measures each kind on
// its own; a workload is a weighted mix of kinds.
type opKind int

const (
	opFindS       opKind = iota // GET /find?s=            the paper's Exp II subject lookup
	opFindSPO                   // GET /find?s=&p=&o=      exact triple
	opQueryOne                  // POST /query, one pattern
	opChain3                    // POST /query, 3-hop interactsWith chain from a protein
	opStar                      // POST /query, star over the proteins that interact with a hub
	opFilterOrder               // POST /query, filter + order_by + distinct
	opReachable                 // POST /traverse reachable, depth 3
	opShortest                  // POST /traverse shortest_path
	opInsert8                   // POST /insert, one fresh protein (8 triples)
	opInsert512                 // POST /insert, 64 fresh proteins (512 triples)
	numOps
)

var opNames = [numOps]string{"find_s", "find_spo", "query_one", "chain3", "star", "filter_order", "reachable", "shortest_path", "insert8", "insert512"}

func (k opKind) String() string { return opNames[k] }

func (k opKind) isInsert() bool { return k == opInsert8 || k == opInsert512 }

// request is one generated operation with the answer the generator
// expects. The expectation is what makes every response checkable
// without a second implementation of the store.
type request struct {
	kind   opKind
	method string
	path   string // with query string
	body   []byte // nil for GET

	wantCount int     // "count" (reads) or "inserted" and "new_links" (inserts)
	wantFound bool    // shortest_path only
	wantCost  float64 // shortest_path only, when found

	// Typed form of the same operation for the in-process rungs of the
	// ladder; the wire form above is derived from it.
	subject  string      // protein URI the operation is keyed on
	pred     string      // find_spo
	object   string      // find_spo, shortest_path target
	query    string      // /query text
	filter   string      // filter_order
	orderBy  []string    // filter_order
	distinct bool        // filter_order
	triples  [][3]string // inserts: N-Triples-style s, p, o
	acked    []string    // inserts: the fresh subjects, for the post-recovery audit
}

// keyDist picks protein indexes for requests.
type keyDist int

const (
	uniformKeys keyDist = iota
	zipfKeys
)

// reqGen is a deterministic request stream over one dataset: the same
// (dataset seed, stream id) yields the same sequence.
type reqGen struct {
	ds     *dataset
	rng    *rand.Rand
	zipf   *rand.Zipf
	dist   keyDist
	id     int // keeps fresh subjects of different streams disjoint
	nextID int
}

func newReqGen(ds *dataset, dist keyDist, id int) *reqGen {
	rng := rand.New(rand.NewSource(ds.seed*1_000_003 + int64(id)))
	return &reqGen{
		ds: ds, rng: rng, dist: dist, id: id,
		zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(ds.proteins)-1)),
	}
}

// key draws a protein index from the stream's key distribution.
func (g *reqGen) key() int {
	if g.dist == zipfKeys {
		return g.ds.zipfPerm[g.zipf.Uint64()]
	}
	return g.rng.Intn(len(g.ds.proteins))
}

// hot draws a popular protein whatever the key distribution: traversal
// targets, so that a path usually exists and is short.
func (g *reqGen) hot() int { return g.ds.zipfPerm[g.zipf.Uint64()] }

func wrap(uri string) string { return "<" + uri + ">" }

const (
	xsdInt   = "^^<" + rdfterm.XSDInt + ">"
	replaces = uniprot.CoreNS + "replaces"
)

// next builds the next request of the given kind.
func (g *reqGen) next(kind opKind) *request {
	ds := g.ds
	r := &request{kind: kind}
	switch kind {
	case opFindS:
		p := ds.proteins[g.key()]
		r.subject, r.wantCount = p.subject, p.triples
		r.get(url.Values{"s": {wrap(p.subject)}})
	case opFindSPO:
		p := ds.proteins[g.key()]
		r.subject, r.pred, r.object, r.wantCount = p.subject, uniprot.Organism, p.organism, 1
		r.get(url.Values{"s": {wrap(p.subject)}, "p": {wrap(uniprot.Organism)}, "o": {wrap(p.organism)}})
	case opQueryOne:
		p := ds.proteins[g.key()]
		r.subject, r.wantCount = p.subject, len(p.seeAlso)
		r.query = fmt.Sprintf("(<%s> <%s> ?x)", p.subject, uniprot.SeeAlso)
		r.postQuery()
	case opChain3:
		a := g.key()
		r.subject, r.wantCount = ds.proteins[a].subject, ds.paths3(a)
		r.query = fmt.Sprintf("(<%s> <%s> ?b) (?b <%s> ?c) (?c <%s> ?d)", r.subject, interactsWith, interactsWith, interactsWith)
		r.postQuery()
	case opStar:
		hub := ds.hubs[g.rng.Intn(len(ds.hubs))]
		r.subject = ds.proteins[hub].subject
		for _, p := range ds.in[hub] {
			r.wantCount += len(ds.proteins[p].seeAlso)
		}
		r.query = fmt.Sprintf("(?p <%s> <%s>) (?p <%s> ?t) (?p <%s> ?o) (?p <%s> ?m) (?p <%s> ?x)",
			interactsWith, r.subject, rdfterm.RDFType, uniprot.Organism, uniprot.Mnemonic, uniprot.SeeAlso)
		r.postQuery()
	case opFilterOrder:
		hub := ds.hubs[g.rng.Intn(len(ds.hubs))]
		r.subject = ds.proteins[hub].subject
		const minMass = 100_000
		for _, p := range ds.in[hub] {
			if ds.proteins[p].mass > minMass {
				r.wantCount++
			}
		}
		r.query = fmt.Sprintf("(?p <%s> <%s>) (?p <%s> ?m)", interactsWith, r.subject, uniprot.Mass)
		r.filter, r.orderBy, r.distinct = "?m > "+strconv.Itoa(minMass), []string{"m"}, true
		r.postQuery()
	case opReachable:
		a := g.key()
		r.subject, r.wantCount = ds.proteins[a].subject, ds.reach3(a)
		r.post("/traverse", map[string]any{"op": "reachable", "source": wrap(r.subject), "max_depth": 3})
	case opShortest:
		a, b := g.key(), g.hot()
		for b == a {
			b = g.hot()
		}
		r.subject, r.object = ds.proteins[a].subject, ds.proteins[b].subject
		if h := ds.hops(a, b); h >= 0 {
			r.wantFound, r.wantCost, r.wantCount = true, float64(h), h+1
		}
		r.post("/traverse", map[string]any{"op": "shortest_path", "source": wrap(r.subject), "target": wrap(r.object)})
	case opInsert8:
		g.insert(r, 1)
	case opInsert512:
		g.insert(r, 64)
	}
	return r
}

// insert fills r with n fresh proteins of 8 triples each. Predicates
// and about half the objects (type, organism, one cross-reference, the
// replaced entry) already exist in the loaded data; the rest are new
// terms — the shape of online writes to a live catalogue. No inserted
// triple uses interactsWith, so the expected answers of the read
// probes do not move while a workload writes.
func (g *reqGen) insert(r *request, n int) {
	ds := g.ds
	for i := 0; i < n; i++ {
		g.nextID++
		s := fmt.Sprintf("urn:lsid:uniprot.org:uniprot:W%d_%07d", g.id, g.nextID)
		old := ds.proteins[g.key()]
		ref := old.seeAlso[g.rng.Intn(len(old.seeAlso))]
		r.acked = append(r.acked, s)
		r.triples = append(r.triples,
			[3]string{wrap(s), wrap(rdfterm.RDFType), wrap(uniprot.ProteinType)},
			[3]string{wrap(s), wrap(uniprot.Mnemonic), fmt.Sprintf(`"W%d_%07d_BENCH"`, g.id, g.nextID)},
			[3]string{wrap(s), wrap(uniprot.Organism), wrap(old.organism)},
			[3]string{wrap(s), wrap(uniprot.Mass), `"` + strconv.Itoa(300_000+g.nextID) + `"` + xsdInt},
			[3]string{wrap(s), wrap(uniprot.Citation), wrap(fmt.Sprintf("urn:lsid:uniprot.org:citations:W%d_%d", g.id, g.nextID))},
			[3]string{wrap(s), wrap(uniprot.SeeAlso), wrap(ref)},
			[3]string{wrap(s), wrap(uniprot.SeeAlso), wrap(fmt.Sprintf("urn:lsid:uniprot.org:bench:W%d_%d", g.id, g.nextID))},
			[3]string{wrap(s), wrap(replaces), wrap(old.subject)},
		)
	}
	r.wantCount = len(r.triples)
	type tj struct {
		S string `json:"s"`
		P string `json:"p"`
		O string `json:"o"`
	}
	ts := make([]tj, len(r.triples))
	for i, t := range r.triples {
		ts[i] = tj{t[0], t[1], t[2]}
	}
	r.post("/insert", map[string]any{"model": modelName, "triples": ts})
}

func (r *request) get(q url.Values) {
	r.method, r.path = "GET", "/find?"+q.Encode()
}

func (r *request) postQuery() {
	body := map[string]any{"query": r.query}
	if r.filter != "" {
		body["filter"] = r.filter
	}
	if len(r.orderBy) > 0 {
		body["order_by"] = r.orderBy
	}
	if r.distinct {
		body["distinct"] = true
	}
	r.post("/query", body)
}

func (r *request) post(path string, body any) {
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // maps of strings, ints and bools always encode
	}
	r.method, r.path, r.body = "POST", path, b
}

// check compares a response with what the generator expects.
func (r *request) check(status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("%s %s: status %d: %s", r.method, r.path, status, clip(body))
	}
	if r.kind.isInsert() {
		if ins, nl := intField(body, "inserted"), intField(body, "new_links"); ins != r.wantCount || nl != r.wantCount {
			return fmt.Errorf("%s: inserted %d new_links %d, want %d of each", r.kind, ins, nl, r.wantCount)
		}
		return nil
	}
	if r.kind == opShortest {
		found := bytes.Contains(body, []byte(`"found":true`))
		if found != r.wantFound {
			return fmt.Errorf("shortest_path %s → %s: found %v, want %v", r.subject, r.object, found, r.wantFound)
		}
		if found {
			if c := intField(body, "cost"); float64(c) != r.wantCost {
				return fmt.Errorf("shortest_path %s → %s: cost %d, want %v", r.subject, r.object, c, r.wantCost)
			}
		}
	}
	if bytes.Contains(body, []byte(`"truncated":true`)) {
		return fmt.Errorf("%s %s: truncated result", r.kind, r.subject)
	}
	if c := intField(body, "count"); c != r.wantCount {
		return fmt.Errorf("%s %s: count %d, want %d", r.kind, r.subject, c, r.wantCount)
	}
	return nil
}

// intField reads the last top-level-looking `"name":<int>` in a JSON
// body, or -1. The server writes count/inserted/cost after the row
// arrays, and a quote inside a term is escaped, so the last unescaped
// occurrence is the field. Scanning the tail keeps the load generator,
// which shares two cores with the server, from decoding every row.
func intField(body []byte, name string) int {
	key := []byte(`"` + name + `":`)
	i := bytes.LastIndex(body, key)
	if i < 0 {
		return -1
	}
	n, digits := 0, 0
	for _, c := range body[i+len(key):] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
		digits++
	}
	if digits == 0 {
		return -1
	}
	return n
}

func clip(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(bytes.TrimSpace(b))
}

// mix is a workload's request mix: kinds with integer weights.
type mix []struct {
	kind   opKind
	weight int
}

// pick draws a kind from the mix.
func (m mix) pick(rng *rand.Rand) opKind {
	total := 0
	for _, e := range m {
		total += e.weight
	}
	n := rng.Intn(total)
	for _, e := range m {
		if n < e.weight {
			return e.kind
		}
		n -= e.weight
	}
	panic("unreachable")
}

// stream draws n requests from the mix.
func (g *reqGen) stream(m mix, n int) []*request {
	out := make([]*request, n)
	for i := range out {
		out[i] = g.next(m.pick(g.rng))
	}
	return out
}

// hashRequests is the fingerprint of a request stream: same seed, same
// bytes on the wire, in the same order.
func hashRequests(reqs []*request) string {
	h := sha256.New()
	for _, r := range reqs {
		fmt.Fprintf(h, "%s %s\n%s\n", r.method, r.path, r.body)
	}
	return hex.EncodeToString(h.Sum(nil))
}
