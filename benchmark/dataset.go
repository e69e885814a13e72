package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/ntriples"
	"repro/internal/rdfterm"
	"repro/internal/uniprot"
)

// Dataset shape. The base is internal/uniprot's generator at the paper's
// Table-2 proportion of reified rdfs:seeAlso statements, every reified
// statement expanded to the standard four-triple quad (what uniprotgen
// -quads emits), so that the program's set-up folds quads to DBUris. The
// overlay is the benchmark's own: protein→protein interactsWith edges,
// sources uniform and targets Zipf, which gives chain joins and NDM
// traversals paths to follow and a few hubs with hundreds of in-edges.
const (
	baseTriples  = 50_000
	overlayEdges = baseTriples / 4
	zipfS        = 1.1

	interactsWith = uniprot.CoreNS + "interactsWith"

	// Star queries anchor on a hub: one of the hubCount proteins whose
	// in-degree is nearest hubIn. That keeps the result in the hundreds
	// of rows, clear of the server's row budget, and about the same size
	// whatever the seed.
	hubIn, hubCount = 64, 16
)

// protein is what the request generator knows about one subject: enough
// to state the expected answer of every probe that names it.
type protein struct {
	subject  string // URI text, no angle brackets
	triples  int    // distinct stored triples with this subject (base + overlay out-edges)
	seeAlso  []string
	organism string
	mass     int
	objects  []uint64 // hashes of the distinct base-triple objects, for reach3
}

// dataset is one seed's generated input plus the generator's own index
// of it. The program under test sees only the file at path.
type dataset struct {
	seed       int64
	path       string
	sha256     string
	lines      int // triples in the file, quads included
	reified    int
	bytes      int64
	genSeconds float64

	proteins []protein
	out      [][]int32 // overlay adjacency by protein index
	in       [][]int32
	hubs     []int // the hubCount protein indexes with in-degree nearest hubIn
	zipfPerm []int // rank → protein index; the same hot set for edges and Zipf requests
}

// generate streams the dataset for seed to w and returns the index.
func generate(seed int64, w io.Writer) (*dataset, error) {
	t0 := time.Now()
	ds := &dataset{seed: seed}
	h := sha256.New()
	bw := bufio.NewWriterSize(io.MultiWriter(w, h), 1<<20)
	nt := ntriples.NewWriter(bw)
	emit := func(t ntriples.Triple) error {
		ds.lines++
		return nt.Write(t)
	}

	uri := rdfterm.NewURI
	var cur *protein
	seen := map[string]bool{} // "p o" of the current subject, for distinct counts
	quadSeq := 0
	reified, err := uniprot.Stream(uniprot.Config{
		Triples: baseTriples,
		Reified: uniprot.PaperReifiedCount(baseTriples),
		Seed:    seed,
	}, func(t ntriples.Triple, reify bool) error {
		if err := emit(t); err != nil {
			return err
		}
		if cur == nil || cur.subject != t.Subject.Value {
			ds.proteins = append(ds.proteins, protein{subject: t.Subject.Value})
			cur = &ds.proteins[len(ds.proteins)-1]
			clear(seen)
		}
		key := t.Predicate.Value + " " + ntriples.FormatTerm(t.Object)
		if !seen[key] {
			seen[key] = true
			cur.triples++
			cur.objects = append(cur.objects, hashString(ntriples.FormatTerm(t.Object)))
			switch t.Predicate.Value {
			case uniprot.SeeAlso:
				cur.seeAlso = append(cur.seeAlso, t.Object.Value)
			case uniprot.Organism:
				cur.organism = t.Object.Value
			case uniprot.Mass:
				cur.mass, _ = strconv.Atoi(t.Object.Value)
			}
		}
		if !reify {
			return nil
		}
		quadSeq++
		r := rdfterm.NewBlank("reif" + strconv.Itoa(quadSeq))
		for _, q := range []ntriples.Triple{
			{Subject: r, Predicate: uri(rdfterm.RDFType), Object: uri(rdfterm.RDFStatement)},
			{Subject: r, Predicate: uri(rdfterm.RDFSubject), Object: t.Subject},
			{Subject: r, Predicate: uri(rdfterm.RDFPredicate), Object: t.Predicate},
			{Subject: r, Predicate: uri(rdfterm.RDFObject), Object: t.Object},
		} {
			if err := emit(q); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ds.reified = reified
	// The triple budget cuts the last protein short; keep it out of the
	// key space so every key has a complete record.
	ds.proteins = ds.proteins[:len(ds.proteins)-1]

	// Overlay. Its generator is separate from the request generators' so
	// that changing a workload mix never changes the data.
	rng := rand.New(rand.NewSource(seed ^ 0x6f7665726c6179))
	n := len(ds.proteins)
	ds.zipfPerm = rng.Perm(n)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(n-1))
	ds.out = make([][]int32, n)
	ds.in = make([][]int32, n)
	has := map[[2]int32]bool{}
	pred := uri(interactsWith)
	for edges := 0; edges < overlayEdges; {
		a := int32(1 + rng.Intn(n-1)) // never the probe subject: it keeps the paper's 24 rows
		b := int32(ds.zipfPerm[zipf.Uint64()])
		if a == b || has[[2]int32{a, b}] {
			continue
		}
		has[[2]int32{a, b}] = true
		ds.out[a] = append(ds.out[a], b)
		ds.in[b] = append(ds.in[b], a)
		ds.proteins[a].triples++
		edges++
		if err := emit(ntriples.Triple{Subject: uri(ds.proteins[a].subject), Predicate: pred, Object: uri(ds.proteins[b].subject)}); err != nil {
			return nil, err
		}
	}
	byIn := make([]int, n)
	for i := range byIn {
		byIn[i] = i
	}
	off := func(i int) int { return max(len(ds.in[i])-hubIn, hubIn-len(ds.in[i])) }
	sort.Slice(byIn, func(i, j int) bool {
		if a, b := off(byIn[i]), off(byIn[j]); a != b {
			return a < b
		}
		return byIn[i] < byIn[j]
	})
	ds.hubs = byIn[:hubCount]
	sort.Ints(ds.hubs)
	if err := nt.Flush(); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	ds.sha256 = hex.EncodeToString(h.Sum(nil))
	ds.genSeconds = time.Since(t0).Seconds()
	return ds, nil
}

// generateFile writes the dataset for seed to path.
func generateFile(seed int64, path string) (*dataset, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	ds, err := generate(seed, f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	ds.path, ds.bytes = path, fi.Size()
	return ds, nil
}

// hops is the length of the shortest interactsWith path from a to b,
// or -1 when there is none: the generator's own answer to a
// shortest_path request. Only interactsWith edges lead from a protein
// to a protein, and distinct edges carry COST 1, so hops is the cost
// the store must report.
func (ds *dataset) hops(a, b int) int {
	if a == b {
		return 0
	}
	dist := map[int32]int{int32(a): 0}
	queue := []int32{int32(a)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range ds.out[u] {
			if _, ok := dist[v]; ok {
				continue
			}
			dist[v] = dist[u] + 1
			if int(v) == b {
				return dist[v]
			}
			queue = append(queue, v)
		}
	}
	return -1
}

// reach3 is the number of nodes within three links of protein a, a
// itself excluded: the node count of a depth-3 reachable traversal.
// Every triple is a link, so the set is the proteins within three
// interactsWith hops plus the objects of those within two (objects
// other than proteins have no out-links).
func (ds *dataset) reach3(a int) int {
	prot := map[int32]int{int32(a): 0}
	frontier := []int32{int32(a)}
	for d := 1; d <= 3; d++ {
		var next []int32
		for _, u := range frontier {
			for _, v := range ds.out[u] {
				if _, ok := prot[v]; !ok {
					prot[v] = d
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	objs := map[uint64]bool{}
	for p, d := range prot {
		if d <= 2 {
			for _, o := range ds.proteins[p].objects {
				objs[o] = true
			}
		}
	}
	return len(prot) - 1 + len(objs)
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// paths3 is the number of interactsWith paths a→b→c→d: the row count
// of the chain-3 query anchored at a.
func (ds *dataset) paths3(a int) int {
	n := 0
	for _, b := range ds.out[a] {
		for _, c := range ds.out[b] {
			n += len(ds.out[c])
		}
	}
	return n
}
