package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/rdfterm"
	"repro/internal/reldb"
	"repro/internal/uniprot"
	"repro/internal/wal"
)

// The measurements here are of one layer in isolation, on one
// goroutine: the figures a change to that layer moves first.

// perOp times n calls of fn and returns nanoseconds and heap
// allocations per call.
func perOp(n int, fn func(i int)) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(d.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

func (g *rig) micro() error {
	ctx := context.Background()
	st := g.sv.Store()

	// rdfterm: the terms a request carries — a subject URI, a typed
	// literal, a plain literal.
	p := g.ds.proteins[1]
	terms := []string{wrap(p.subject), `"` + fmt.Sprint(p.mass) + `"` + xsdInt, `"MN00001_HUMAN"`, wrap(p.organism)}
	aliases := rdfterm.Default()
	var perr error
	ns, allocs := perOp(40_000, func(i int) {
		if _, err := rdfterm.ParseObject(terms[i%len(terms)], aliases); err != nil {
			perr = err
		}
	})
	if perr != nil {
		return perr
	}
	g.set("rdfterm.parse_ns", ns, "ns")
	g.set("rdfterm.parse_allocs", allocs, "count")

	// core reads: term resolution per row, and the paper's Exp III.
	probe := core.Pattern{Subject: core.P(rdfterm.NewURI(uniprot.ProbeSubject))}
	found, err := st.FindModelsCtx(ctx, []string{modelName}, probe)
	if err != nil {
		return err
	}
	if len(found) != uniprot.ProbeRows {
		return fmt.Errorf("probe subject has %d rows, want %d", len(found), uniprot.ProbeRows)
	}
	ns, _ = perOp(400*len(found), func(i int) {
		if _, err := found[i%len(found)].GetTriple(); err != nil {
			perr = err
		}
	})
	if perr != nil {
		return perr
	}
	g.set("core.resolve_ns_per_row", ns, "ns")
	objects := []string{uniprot.ProbeSeeAlso, uniprot.NonReifiedProbeObject}
	ns, _ = perOp(4000, func(i int) {
		got, err := st.IsReified(modelName, uniprot.ProbeSubject, uniprot.SeeAlso, objects[i%2], aliases)
		if err == nil && got != (i%2 == 0) {
			err = fmt.Errorf("IS_REIFIED(%s) = %v", objects[i%2], got)
		}
		if err != nil {
			perr = err
		}
	})
	if perr != nil {
		return perr
	}
	g.set("core.is_reified_us", ns/1000, "us")

	// match: parsing alone.
	gen := newReqGen(g.ds, uniformKeys, 10)
	queries := []string{gen.next(opChain3).query, gen.next(opStar).query, gen.next(opFilterOrder).query}
	ns, _ = perOp(6000, func(i int) {
		if _, err := match.ParseQuery(queries[i%len(queries)], aliases); err != nil {
			perr = err
		}
	})
	if perr != nil {
		return perr
	}
	g.set("match.parse_us", ns/1000, "us")

	// wal: framing and the commit, apart. The records are the last
	// batch's; the log is the ladder's stand-alone one.
	records := g.capture.records
	if len(records) == 0 {
		return fmt.Errorf("no WAL records captured by the ladder")
	}
	var appendNS time.Duration
	var commits []time.Duration
	const rounds = 200
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		for _, r := range records {
			if err := g.log.Append(r); err != nil {
				return err
			}
		}
		t1 := time.Now()
		if err := g.log.Commit(); err != nil {
			return err
		}
		appendNS += t1.Sub(t0)
		commits = append(commits, time.Since(t1))
	}
	g.set("wal.append_ns_per_record", float64(appendNS.Nanoseconds())/float64(rounds*len(records)), "ns")
	g.set("wal.commit_us", us(median(commits)), "us")

	// trace/obs: the handler as shipped minus the handler with tracer
	// and registry both nil, on subject lookups; and what the
	// benchmark's own spans cost on the same replay.
	reqs := gen.stream(mix{{opFindS, 1}}, 400)
	var shipped, bare, spanned []time.Duration
	variants := []func(i int, r *request) error{
		func(_ int, r *request) error { return viaHandler(ctx, g.shipped, r) },
		func(_ int, r *request) error { return viaHandler(ctx, g.bare, r) },
		func(i int, r *request) error {
			_, err := g.span(-1-i, opFindS, "bench.span_overhead", -1, func() error { return viaHandler(ctx, g.shipped, r) })
			return err
		},
	}
	samples := []*[]time.Duration{&shipped, &bare, &spanned}
	for round := 0; round < 3; round++ {
		for i, r := range reqs {
			// The variant that goes first finds the request's rows cold;
			// rotating the order spreads that over all three.
			for k := 0; k < 3; k++ {
				v := (i + round + k) % 3
				t0 := time.Now()
				if err := variants[v](i, r); err != nil {
					return err
				}
				*samples[v] = append(*samples[v], time.Since(t0))
			}
		}
	}
	g.set("trace.overhead_us", us(median(shipped)-median(bare)), "us")
	g.set("bench.span_overhead_share", float64(median(spanned)-median(shipped))/float64(median(shipped)), "1")

	g.microBtree()
	return g.microReldb()
}

func (g *rig) microReldb() error {
	const n = 20_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var ierr error
	ns, allocs := perOp(n, func(int) {
		if err := g.insertLinkRow(); err != nil {
			ierr = err
		}
	})
	runtime.GC()
	runtime.ReadMemStats(&after)
	if ierr != nil {
		return ierr
	}
	g.set("reldb.insert_ns", ns, "ns")
	g.set("reldb.insert_allocs", allocs, "count")
	g.set("reldb.row_bytes", float64(after.HeapAlloc-before.HeapAlloc)/n, "B")

	last := g.nextID
	ns, _ = perOp(n, func(i int) {
		id := last - int64(i)
		g.mspo.LookupOne(reldb.Key{reldb.Int(1), reldb.Int(id / 12), reldb.Int(id % 12), reldb.Int(id)})
	})
	g.set("reldb.index_get_ns", ns, "ns")
	rows := 0
	t0 := time.Now()
	for s := int64(1); s <= 2000; s++ {
		g.mspo.ScanPrefixRows(reldb.Key{reldb.Int(1), reldb.Int(s)}, func(reldb.Key, reldb.RowID, reldb.Row) bool {
			rows++
			return true
		})
	}
	g.set("reldb.range_ns_per_row", float64(time.Since(t0).Nanoseconds())/float64(rows), "ns")
	return nil
}

func (g *rig) microBtree() {
	const n = 50_000
	tree := btree.New[reldb.Key](reldb.KeyCompare)
	key := func(i int) reldb.Key {
		id := int64(i)
		return reldb.Key{reldb.Int(1), reldb.Int(id / 12), reldb.Int(id % 12), reldb.Int(id)}
	}
	keys := make([]reldb.Key, n)
	for i := range keys {
		keys[(i*7919)%n] = key(i) // inserted out of order, as index keys arrive
	}
	ns, allocs := perOp(n, func(i int) { tree.Insert(keys[i], int64(i)) })
	g.set("btree.insert_ns", ns, "ns")
	g.set("btree.allocs_per_insert", allocs, "count")
	ns, _ = perOp(n, func(i int) { tree.Get(keys[i]) })
	g.set("btree.get_ns", ns, "ns")
	t0 := time.Now()
	seen := 0
	tree.Ascend(func(reldb.Key, int64) bool { seen++; return true })
	g.set("btree.scan_ns_per_key", float64(time.Since(t0).Nanoseconds())/float64(seen), "ns")
}

// recovery measures what a restart pays, on the supervised store's own
// log: the scan, the replay, then a checkpoint and its size.
func (g *rig) recovery() error {
	if err := g.sv.Close(); err != nil {
		return err
	}
	walDir := filepath.Join(g.dir, "ladder-wal")
	segments, err := filepath.Glob(filepath.Join(walDir, "*.log"))
	if err != nil {
		return err
	}
	records := 0
	t0 := time.Now()
	for _, seg := range segments {
		res, err := wal.ScanFile(seg)
		if err != nil {
			return err
		}
		records += len(res.Records)
	}
	g.set("wal.scan_ns_per_record", float64(time.Since(t0).Nanoseconds())/float64(max(records, 1)), "ns")

	snap := filepath.Join(g.dir, "ladder.snap")
	t0 = time.Now()
	st, dir, info, err := core.RecoverDir(snap, walDir, wal.DirOptions{})
	if err != nil {
		return err
	}
	defer dir.Close()
	g.set("core.replay_ns_per_record", float64(time.Since(t0).Nanoseconds())/float64(max(info.Applied, 1)), "ns")
	t0 = time.Now()
	if err := core.CheckpointDir(st, snap, dir); err != nil {
		return err
	}
	g.set("core.checkpoint_s", time.Since(t0).Seconds(), "s")
	fi, err := os.Stat(snap)
	if err != nil {
		return err
	}
	g.set("core.snapshot_bytes_per_triple", float64(fi.Size())/float64(st.TotalTriples()), "B")
	return nil
}

// dirBytes is the total size of the files directly under dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}
