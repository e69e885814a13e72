// Package load implements the parallel bulk-load pipeline: N-Triples
// parsing fans out to worker goroutines over bounded channels while a
// single batching consumer receives the parsed triples in input order.
//
// The shape follows the bulk-ingest pipelines of production triple
// stores (Cayley's quad batching, the paper's §7.3 Java bulk loader):
// parsing is the CPU-bound stage and parallelizes embarrassingly line by
// line, while insertion is serialized anyway by the store's write lock —
// so the pipeline is parse-parallel, insert-batched:
//
//	scanner ──chunks──▶ N parse workers ──parsed──▶ reorder + batch ──▶ sink
//
// Every stage propagates errors: a parse error (reported with its input
// line number), a scanner error, or a sink error cancels the pipeline,
// and the first error in input order wins deterministically.
package load

import (
	"bufio"
	"context"
	"io"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/ntriples"
)

// Defaults for Options zero values.
const (
	// DefaultBatchSize is the number of triples per sink call.
	DefaultBatchSize = 1024
	// DefaultChunkLines is the number of input lines handed to a parse
	// worker at a time.
	DefaultChunkLines = 256
)

// Options tune the pipeline.
type Options struct {
	// Workers is the number of parallel parse workers. 0 uses
	// GOMAXPROCS; 1 parses serially on the calling goroutine.
	Workers int
	// BatchSize is the number of triples per sink call (default
	// DefaultBatchSize).
	BatchSize int
	// ChunkLines is the number of lines per parse chunk (default
	// DefaultChunkLines). Smaller chunks spread uneven lines better;
	// larger chunks amortize channel traffic.
	ChunkLines int
}

func (o Options) workers() int {
	if o.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

func (o Options) batchSize() int {
	if o.BatchSize <= 0 {
		return DefaultBatchSize
	}
	return o.BatchSize
}

func (o Options) chunkLines() int {
	if o.ChunkLines <= 0 {
		return DefaultChunkLines
	}
	return o.ChunkLines
}

// Run streams N-Triples from r through the pipeline, delivering parsed
// triples to sink in input order, BatchSize at a time (the final batch
// may be short). The batch slice is reused between calls — sink must not
// retain it. Run returns the number of triples delivered.
func Run(r io.Reader, opts Options, sink func([]ntriples.Triple) error) (int, error) {
	if opts.workers() == 1 {
		return runSerial(r, opts.batchSize(), sink)
	}
	return runParallel(r, opts, sink)
}

// Parse reads all triples from r with parallel parse workers, preserving
// input order — the collect-everything entry point for loaders that must
// see the whole input before inserting (reification folding, §7.3).
func Parse(r io.Reader, opts Options) ([]ntriples.Triple, error) {
	var out []ntriples.Triple
	_, err := Run(r, opts, func(batch []ntriples.Triple) error {
		out = append(out, batch...)
		return nil
	})
	return out, err
}

// BulkLoad streams r straight into store.InsertBatchCtx on model — the
// fast path for inputs without reification quads to fold. Each batch is
// one write-lock acquisition and one WAL commit point.
func BulkLoad(store *core.Store, model string, r io.Reader, opts Options) (int, error) {
	batch := make([]core.BatchTriple, 0, opts.batchSize())
	return Run(r, opts, func(ts []ntriples.Triple) error {
		batch = batch[:0]
		for _, t := range ts {
			batch = append(batch, core.BatchTriple{Subject: t.Subject, Predicate: t.Predicate, Object: t.Object})
		}
		_, err := store.InsertBatchCtx(context.Background(), model, batch)
		return err
	})
}

// runSerial is the no-goroutine path for Workers == 1.
func runSerial(r io.Reader, batchSize int, sink func([]ntriples.Triple) error) (int, error) {
	reader := ntriples.NewReader(r)
	batch := make([]ntriples.Triple, 0, batchSize)
	total := 0
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := sink(batch); err != nil {
			return err
		}
		total += len(batch)
		batch = batch[:0]
		return nil
	}
	for {
		t, err := reader.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return total, err
		}
		batch = append(batch, t)
		if len(batch) >= batchSize {
			if err := flush(); err != nil {
				return total, err
			}
		}
	}
	return total, flush()
}

// chunk is a numbered group of raw input lines headed to a parse worker.
type chunk struct {
	seq   int
	line  int // input line number of lines[0], 1-based
	lines []string
}

// parsed is a worker's output for one chunk.
type parsed struct {
	seq     int
	triples []ntriples.Triple
	err     error
}

func runParallel(r io.Reader, opts Options, sink func([]ntriples.Triple) error) (int, error) {
	workers := opts.workers()
	batchSize := opts.batchSize()
	chunkLines := opts.chunkLines()

	// Bounded channels: the scanner can run at most ~2×workers chunks
	// ahead of the slowest worker, and workers at most one batch ahead
	// of the consumer — memory stays flat on arbitrarily large inputs.
	chunks := make(chan chunk, workers)
	results := make(chan parsed, workers)
	quit := make(chan struct{})
	var quitOnce sync.Once
	cancel := func() { quitOnce.Do(func() { close(quit) }) }
	defer cancel()

	// Stage 1: scanner. Groups lines into numbered chunks.
	var scanErr error
	var scanWG sync.WaitGroup
	scanWG.Add(1)
	go func() {
		defer scanWG.Done()
		defer close(chunks)
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64*1024), ntriples.MaxLineLen)
		seq, lineNo := 0, 0
		lines := make([]string, 0, chunkLines)
		send := func() bool {
			if len(lines) == 0 {
				return true
			}
			c := chunk{seq: seq, line: lineNo - len(lines) + 1, lines: lines}
			select {
			case chunks <- c:
				seq++
				lines = make([]string, 0, chunkLines)
				return true
			case <-quit:
				return false
			}
		}
		for sc.Scan() {
			lineNo++
			lines = append(lines, sc.Text())
			if len(lines) >= chunkLines {
				if !send() {
					return
				}
			}
		}
		send()
		scanErr = sc.Err()
	}()

	// Stage 2: parse workers.
	var workWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workWG.Add(1)
		go func() {
			defer workWG.Done()
			for c := range chunks {
				p := parsed{seq: c.seq}
				ts := make([]ntriples.Triple, 0, len(c.lines))
				for i, line := range c.lines {
					t, ok, err := ntriples.ParseLine(line, c.line+i)
					if err != nil {
						p.err = err
						break
					}
					if ok {
						ts = append(ts, t)
					}
				}
				if p.err == nil {
					p.triples = ts
				}
				select {
				case results <- p:
				case <-quit:
					return
				}
			}
		}()
	}
	go func() {
		scanWG.Wait()
		workWG.Wait()
		close(results)
	}()

	// Stage 3: reorder and batch, on the calling goroutine. Chunks
	// complete out of order; they are re-sequenced before batching so
	// the sink observes input order, and an error is reported at the
	// earliest input position regardless of which worker hit it first.
	total := 0
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
		cancel()
	}
	pending := make(map[int]parsed)
	next := 0
	batch := make([]ntriples.Triple, 0, batchSize)
	flush := func() {
		if len(batch) == 0 || firstErr != nil {
			return
		}
		if err := sink(batch); err != nil {
			fail(err)
			return
		}
		total += len(batch)
		batch = batch[:0]
	}
	for p := range results {
		if firstErr != nil {
			continue // draining so the workers can exit
		}
		pending[p.seq] = p
		for {
			q, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if q.err != nil {
				fail(q.err)
				break
			}
			for _, t := range q.triples {
				batch = append(batch, t)
				if len(batch) >= batchSize {
					flush()
				}
			}
			if firstErr != nil {
				break
			}
		}
	}
	if firstErr != nil {
		return total, firstErr
	}
	if scanErr != nil {
		return total, scanErr
	}
	flush()
	return total, firstErr
}
