package main

import "time"

// workload is one traffic mix against one server configuration. Names
// are stable: BENCHMARK.json, results files and -compare key on them.
type workload struct {
	name string
	why  string

	durable  bool // -wal-dir: segmented WAL, one fsync per /insert
	snapshot bool // plus -snapshot and -checkpoint-wal-bytes: background checkpoints
	dist     keyDist

	fixed mix // open-loop phase
	sat   mix // closed-loop phase

	// rate is the fixed phase's offered load in requests per second. It
	// was set once, at about a quarter of the closed-loop throughput of
	// the commit that added this benchmark on the builder's two-core
	// sandbox, and is frozen: parent and change are offered the same
	// load, and a change never moves its own yardstick. (Two cores serve
	// the program and the generator both; above a quarter, queueing
	// behind the program's garbage collector decided the latencies.)
	rate float64
	// limit is the latency beyond which a request counts as missed, as a
	// failed or refused one does; more than 1 % missed is a warning on the
	// run (a warning and not a failure: one stall of the shared host is
	// enough to trip it). It sits about ten times above the p99 the seed
	// commit shows, to catch a server that stops keeping up, not to grade
	// the tail: on this sandbox the tail moves by half from run to run.
	limit  time.Duration
	warmup int // unmeasured requests before the fixed phase
}

// checkpointWALBytes makes mixed_rw checkpoint several times per run:
// its inserts log roughly 1 KiB each, fifty a second in the fixed phase
// and a few hundred a second in the closed-loop phase.
const checkpointWALBytes = 128 << 10

var (
	readPointMix = mix{{opFindS, 70}, {opFindSPO, 15}, {opQueryOne, 15}}
	readJoinMix  = mix{{opChain3, 30}, {opStar, 15}, {opFilterOrder, 15}, {opReachable, 25}, {opShortest, 15}}
)

var workloads = []workload{
	{
		name: "read_point",
		why:  "memory-only server, uniform subjects: 70% /find?s=, 15% exact /find, 15% one-pattern /query; the paper's Exp II lookup over HTTP, so server, rdfterm and core index lookup do the work and wal none",
		dist: uniformKeys, fixed: readPointMix, sat: readPointMix,
		rate: 1500, limit: 50 * time.Millisecond, warmup: 2000,
	},
	{
		name: "read_join",
		why:  "memory-only server: chain-3, hub star (hundreds of rows), filter+order+distinct queries and depth-3 reachable / shortest_path traversals; match and ndm do the work, a /find or WAL change must not move it",
		dist: uniformKeys, fixed: readJoinMix, sat: readJoinMix,
		rate: 300, limit: 250 * time.Millisecond, warmup: 500,
	},
	{
		name:    "write_durable",
		why:     "server on -wal-dir: open-loop /insert of 8 fresh triples with one fsync each, SIGKILL and recovery with every acked triple audited, then closed-loop batches of 512; wal, supervise and core insert do the work",
		durable: true, dist: uniformKeys,
		fixed: mix{{opInsert8, 1}}, sat: mix{{opInsert512, 1}},
		rate: 300, limit: 250 * time.Millisecond, warmup: 200,
	},
	{
		name:    "mixed_rw",
		why:     "server on -wal-dir with snapshot checkpoints: 90% point and join reads on Zipf-hot subjects, 10% inserts of 8; readers against a writer holding the store lock, so a gain bought on the other side shows here",
		durable: true, snapshot: true, dist: zipfKeys,
		fixed: mixedMix(), sat: mixedMix(),
		rate: 500, limit: 500 * time.Millisecond, warmup: 1000,
	},
}

// mixedMix is 60 % read_point requests, 30 % read_join requests and
// 10 % inserts.
func mixedMix() mix {
	var m mix
	for _, e := range readPointMix {
		e.weight *= 6 // 100 → 600
		m = append(m, e)
	}
	for _, e := range readJoinMix {
		e.weight *= 3 // 100 → 300
		m = append(m, e)
	}
	return append(m, mix{{opInsert8, 100}}...)
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
