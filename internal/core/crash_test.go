package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rdfterm"
	"repro/internal/wal"
)

// Crash-point matrix: a fixed workload is recorded once (the golden
// history: its record stream, with the store fingerprinted at every commit
// point), then re-run through a wal.Dir with one fault injected at every
// sampled byte offset of everything the run writes, in every fault mode
// (wal.FaultInjector). Whatever survives on disk is recovered, and the
// result must be a consistent store holding a prefix of the golden history
// — and, whenever the surviving prefix ends exactly on a commit boundary,
// must equal the golden store as of that commit, byte for byte, and stay
// writable. Damage recovery cannot repair (a flipped byte in a segment
// header, or anywhere in a non-final segment) must be refused with a typed
// error, never replayed.
//
// The cells are one segment and rotating segments. One segment holds the
// whole log in one file. Rotating segments are small enough that the
// workload spans dozens of them, so crashes also land on rotation
// boundaries: the old segment's last frame, the new segment's header.
// Frames reach the file only at commit points, one commit per write. The
// checkpoint windows are the last axis (TestDirCheckpointCrashWindows).

// crashSegmentBytes forces rotation every few records.
const crashSegmentBytes = 128

// crashCell is one cell of the matrix.
type crashCell struct {
	segmentBytes int64 // 0: the default, far above the workload's size
}

// forEachCell runs fn over the matrix as the parallel subtests
// <segments>/sync-every-1: the cells share nothing, and a cell's runs
// alternate between CPU (the workload, replay) and file system calls.
// sync-every-1 names the store's one commit policy: one write and one
// fsync per commit.
func forEachCell(t *testing.T, fn func(t *testing.T, c crashCell)) {
	segments := []struct {
		name  string
		bytes int64
	}{{"one-segment", 0}, {"rotating", crashSegmentBytes}}
	for _, seg := range segments {
		t.Run(seg.name, func(t *testing.T) {
			t.Parallel()
			t.Run("sync-every-1", func(t *testing.T) {
				fn(t, crashCell{segmentBytes: seg.bytes})
			})
		})
	}
}

// open opens the cell's log in dir, every segment wrapped by inj.
func (c crashCell) open(dir string, inj *wal.FaultInjector) (*wal.Dir, error) {
	d, _, err := wal.OpenDir(dir, 0, wal.DirOptions{SegmentBytes: c.segmentBytes, Wrap: inj.Wrap})
	return d, err
}

// noFault is an injector that never fires: a fault-free run that still
// skips fsyncs.
func noFault() *wal.FaultInjector { return &wal.FaultInjector{FailAt: math.MaxInt64} }

// walOp is one step of the crash workload. Each op is a single public
// mutation (one commit point); ops may look up state left by earlier ops
// but must be deterministic.
type walOp struct {
	name string
	do   func(s *Store) error
}

// walWorkload exercises every record type: model DDL, URI/plain/typed/
// language-tagged/long literals, blank nodes (named and generated),
// repeated inserts (cost bump), reification and assertions, containers,
// cost-decrement and full deletes, model drop with shared values, and
// InsertBatch's two-phase record groups.
func walWorkload() []walOp {
	a := govAliases()
	long := strings.Repeat("L", rdfterm.LongLiteralThreshold+7)
	ins := func(model, sub, prop, obj string) walOp {
		return walOp{
			name: fmt.Sprintf("insert %s %s %s %s", model, sub, prop, obj[:min(len(obj), 12)]),
			do: func(s *Store) error {
				_, err := s.NewTripleS(model, sub, prop, obj, a)
				return err
			},
		}
	}
	del := func(model, sub, prop, obj string) walOp {
		return walOp{
			name: fmt.Sprintf("delete %s %s %s %s", model, sub, prop, obj),
			do: func(s *Store) error {
				return s.DeleteTriple(model, sub, prop, obj, a)
			},
		}
	}
	lookupTID := func(s *Store) (int64, error) {
		ts, ok, err := s.IsTriple("gov", "gov:files", "gov:terrorSuspect", "id:JohnDoe", a)
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, errors.New("base triple missing")
		}
		return ts.TID, nil
	}
	return []walOp{
		{"create gov", func(s *Store) error {
			_, err := s.CreateRDFModel("gov", "govdata", "triple")
			return err
		}},
		{"create cia", func(s *Store) error {
			_, err := s.CreateRDFModel("cia", "", "")
			return err
		}},
		ins("gov", "gov:files", "gov:terrorSuspect", "id:JohnDoe"),
		ins("gov", "gov:files", "gov:terrorSuspect", "id:JohnDoe"), // repeat: cost bump
		ins("gov", "gov:files", "gov:caseCount", `"01"^^xsd:int`),  // canonical form differs
		ins("gov", "id:JohnDoe", "gov:alias", `"Jean Dupont"@fr`),
		ins("gov", "_:b1", "gov:knows", "id:JohnDoe"),
		ins("gov", "_:b1", "gov:age", `"44"^^xsd:int`), // blank reuse within model
		ins("gov", "gov:files", "gov:dossier", `"`+long+`"`),
		ins("cia", "gov:files", "gov:sharedWith", "id:MI5"), // values shared across models
		{"new blank node", func(s *Store) error {
			_, err := s.NewBlankNode("cia")
			return err
		}},
		{"reify base", func(s *Store) error {
			tid, err := lookupTID(s)
			if err != nil {
				return err
			}
			_, err = s.Reify("gov", tid)
			return err
		}},
		{"assert about", func(s *Store) error {
			tid, err := lookupTID(s)
			if err != nil {
				return err
			}
			_, err = s.AssertAboutTriple("gov", "gov:MI5", "gov:source", tid, a)
			return err
		}},
		{"assert implied", func(s *Store) error {
			_, err := s.AssertImplied("gov", "gov:Interpol", "gov:said", "gov:x", "gov:y", "gov:z", a)
			return err
		}},
		{"container", func(s *Store) error {
			_, err := s.CreateContainer("gov", BagContainer,
				rdfterm.NewURI("http://m/1"), rdfterm.NewLiteral("two"))
			return err
		}},
		ins("cia", "gov:tmp", "gov:p", "gov:q"),
		ins("cia", "gov:tmp", "gov:p", "gov:q"), // cost 2
		del("cia", "gov:tmp", "gov:p", "gov:q"), // cost decrement
		del("cia", "gov:tmp", "gov:p", "gov:q"), // full delete, orphan cleanup
		{"drop cia", func(s *Store) error { return s.DropRDFModel("cia") }},
		ins("gov", "gov:after", "gov:p", "gov:q"), // store usable after drop
		{"batch insert", func(s *Store) error {
			_, err := s.InsertBatchCtx(context.Background(), "gov", batchWorkload())
			return err
		}},
		{"batch repeat", func(s *Store) error {
			// Re-run part of the batch: pure cost bumps, no new links.
			_, err := s.InsertBatchCtx(context.Background(), "gov", batchWorkload()[:3])
			return err
		}},
	}
}

// fingerprint serializes the store's full logical content (all tables,
// sequence positions) deterministically: two stores with the same
// mutation history produce identical bytes.
func fingerprint(t *testing.T, s *Store) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := s.Save(&b, 0); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// historyLog is a Durability that keeps a copy of every record.
type historyLog struct{ records []wal.Record }

func (l *historyLog) Append(r wal.Record) error { l.records = append(l.records, r.Clone()); return nil }
func (l *historyLog) Commit() error             { return nil }

// goldenHistory runs the workload once, returning its record stream and
// a map from record-count-at-commit-boundary to the live store's
// fingerprint there.
func goldenHistory(t *testing.T, ops []walOp) ([]wal.Record, map[int][]byte) {
	t.Helper()
	log := &historyLog{}
	s := New()
	s.SetDurability(log)
	commits := make(map[int][]byte, len(ops))
	for _, op := range ops {
		if err := op.do(s); err != nil {
			t.Fatalf("golden run, op %q: %v", op.name, err)
		}
		commits[len(log.records)] = fingerprint(t, s)
	}
	assertInvariants(t, s)
	return log.records, commits
}

// recordsArePrefix reports whether got equals full[:len(got)].
func recordsArePrefix(got, full []wal.Record) bool {
	if len(got) > len(full) {
		return false
	}
	for i := range got {
		if got[i] != full[i] {
			return false
		}
	}
	return true
}

// goldenDir runs the workload fault-free through the cell's log in dir
// and checks that the log holds exactly the golden records. It returns
// the global byte offset of every frame and segment-header boundary, in
// write order, and the total bytes written.
func (c crashCell) goldenDir(t *testing.T, dir string, ops []walOp, golden []wal.Record) (bounds []int64, total int64) {
	t.Helper()
	d, err := c.open(dir, noFault())
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	s.SetDurability(d)
	for _, op := range ops {
		if err := op.do(s); err != nil {
			t.Fatalf("golden run, op %q: %v", op.name, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if c.segmentBytes > 0 && d.Segments() < 4 {
		t.Fatalf("workload spans only %d segments; shrink crashSegmentBytes", d.Segments())
	}
	_, res, err := wal.OpenDir(dir, 0, wal.DirOptions{SegmentBytes: c.segmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(golden) || !recordsArePrefix(res.Records, golden) {
		t.Fatalf("the log holds %d records that are not the golden %d", len(res.Records), len(golden))
	}
	// Segments are written one after another and never rewritten, so the
	// bytes written are the segment files in order.
	for seq := res.StartSeq; seq <= res.Seq; seq++ {
		img, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("wal-%06d.log", seq)))
		if err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, total, total+int64(len(wal.Magic)))
		for off := len(wal.Magic); off+8 <= len(img); {
			off += 8 + int(binary.LittleEndian.Uint32(img[off:off+4]))
			bounds = append(bounds, total+int64(off))
		}
		total += int64(len(img))
	}
	return bounds, total
}

// emptyDir removes every file in dir, keeping the directory: reusing one
// directory makes each run's segment files far cheaper to create.
func emptyDir(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDirCrashMatrix kills the writer at every sampled byte offset of
// every cell and proves recovery.
func TestDirCrashMatrix(t *testing.T) {
	ops := walWorkload()
	golden, commits := goldenHistory(t, ops)
	forEachCell(t, func(t *testing.T, c crashCell) {
		dir := t.TempDir()
		bounds, total := c.goldenDir(t, dir, ops, golden)

		// Offsets per mode. FailStop drops a whole write, so only the frame
		// and header boundaries produce distinct images; ShortWrite and
		// CorruptByte act at byte granularity — every byte of one segment,
		// every third across rotating ones. Under -short the byte-granular
		// modes are sampled with a prime stride (still covering tears and
		// flips inside headers, lengths, checksums, and payloads).
		stride := int64(1)
		if c.segmentBytes > 0 {
			stride = 3
		}
		if testing.Short() {
			stride = 13
		}
		var bytewise []int64
		for cut := int64(0); cut < total; cut += stride {
			bytewise = append(bytewise, cut)
		}
		bytewise = append(bytewise, total)
		matrix := []struct {
			mode    wal.FaultMode
			offsets []int64
		}{
			{wal.FailStop, bounds},
			{wal.ShortWrite, bytewise},
			{wal.CorruptByte, bytewise},
		}

		cases := 0
		for _, m := range matrix {
			for _, cut := range m.offsets {
				cases++
				label := fmt.Sprintf("%s@%d", m.mode, cut)
				emptyDir(t, dir)

				// The crash run: the first WAL error is the process dying.
				// CorruptByte never errors (silent corruption), so its run
				// completes.
				inj := &wal.FaultInjector{FailAt: cut, Mode: m.mode}
				if d, err := c.open(dir, inj); err == nil {
					live := New()
					live.SetDurability(d)
					for _, op := range ops {
						if err := op.do(live); err != nil {
							break
						}
					}
				}
				inj.CloseAll()

				// Recover from the surviving directory with plain options.
				d, res, err := wal.OpenDir(dir, 0, wal.DirOptions{SegmentBytes: c.segmentBytes})
				if err != nil {
					detected := errors.Is(err, wal.ErrNotWAL) || errors.Is(err, wal.ErrSegmentCorrupt)
					if m.mode == wal.CorruptByte && detected {
						continue
					}
					t.Fatalf("%s: recovery open: %v", label, err)
				}
				d.Close()
				if !recordsArePrefix(res.Records, golden) {
					t.Fatalf("%s: recovered %d records are not a golden prefix", label, len(res.Records))
				}
				rec := New()
				if err := rec.Replay(res.Records); err != nil {
					t.Fatalf("%s: replay: %v", label, err)
				}
				if errs := rec.CheckInvariants(); len(errs) > 0 {
					t.Fatalf("%s: invariants after recovery: %v", label, errs)
				}
				want, ok := commits[len(res.Records)]
				if !ok {
					continue
				}
				// On a commit boundary the recovered store must equal the
				// golden store as of that commit — same tables, same rows,
				// same sequence positions — and take new writes of every
				// kind: sequences were advanced past every replayed ID.
				if got := fingerprint(t, rec); !bytes.Equal(got, want) {
					t.Fatalf("%s: recovered store differs from golden store at commit with %d records",
						label, len(res.Records))
				}
				if _, err := rec.CreateRDFModel("post", "", ""); err != nil {
					t.Fatalf("%s: store not writable after recovery: %v", label, err)
				}
				if _, err := rec.NewTripleS("post", "gov:s", "gov:p", "gov:o", govAliases()); err != nil {
					t.Fatalf("%s: insert after recovery: %v", label, err)
				}
				if _, err := rec.InsertBatchCtx(context.Background(), "post", batchWorkload()); err != nil {
					t.Fatalf("%s: batch insert after recovery: %v", label, err)
				}
				if errs := rec.CheckInvariants(); len(errs) > 0 {
					t.Fatalf("%s: invariants after post-recovery writes: %v", label, errs)
				}
			}
		}
		t.Logf("%d fault points over %d bytes (%d records)", cases, total, len(golden))
	})
}

// checkpointRig is a cell's log with the whole workload in it, about to
// be checkpointed.
type checkpointRig struct {
	c         crashCell
	dir, snap string
	d         *wal.Dir
	s         *Store
}

// TestDirCheckpointCrashWindows walks a crash through every step of the
// checkpoint protocol (rotate → snapshot-with-watermark → retention), in
// every cell, and proves each window converges to the store as it was.
func TestDirCheckpointCrashWindows(t *testing.T) {
	ops := walWorkload()

	// setup builds the pre-checkpoint state; want is its fingerprint.
	setup := func(t *testing.T, c crashCell) (r *checkpointRig, want []byte) {
		t.Helper()
		base := t.TempDir()
		r = &checkpointRig{c: c, dir: filepath.Join(base, "wal"), snap: filepath.Join(base, "store.snap")}
		var err error
		if r.d, err = c.open(r.dir, noFault()); err != nil {
			t.Fatal(err)
		}
		r.s = New()
		r.s.SetDurability(r.d)
		for _, op := range ops {
			if err := op.do(r.s); err != nil {
				t.Fatal(err)
			}
		}
		return r, fingerprint(t, r.s)
	}

	// recoverAndCompare recovers from disk and checks the store matches.
	recoverAndCompare := func(t *testing.T, r *checkpointRig, want []byte) RecoverInfo {
		t.Helper()
		st, d, info, err := RecoverDir(r.snap, r.dir, wal.DirOptions{SegmentBytes: r.c.segmentBytes})
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		defer d.Close()
		if errs := st.CheckInvariants(); len(errs) > 0 {
			t.Fatalf("invariants: %v", errs)
		}
		if got := fingerprint(t, st); !bytes.Equal(got, want) {
			t.Fatal("recovered store differs from pre-crash store")
		}
		// Still writable through the recovered Dir.
		st.SetDurability(d)
		if _, err := st.CreateRDFModel("post", "", ""); err != nil {
			t.Fatalf("not writable after recovery: %v", err)
		}
		return info
	}

	t.Run("after-rotate", func(t *testing.T) {
		forEachCell(t, func(t *testing.T, c crashCell) {
			r, want := setup(t, c)
			if _, err := r.d.Rotate(); err != nil {
				t.Fatal(err)
			}
			r.d.Close() // crash before the snapshot lands: no snapshot file at all
			info := recoverAndCompare(t, r, want)
			if info.Retired != 0 {
				t.Errorf("retired %d segments with no snapshot watermark", info.Retired)
			}
			if info.Applied == 0 {
				t.Error("nothing replayed; the pre-checkpoint segments are gone")
			}
		})
	})

	t.Run("after-snapshot-before-retention", func(t *testing.T) {
		forEachCell(t, func(t *testing.T, c crashCell) {
			r, want := setup(t, c)
			seq, err := r.d.Rotate()
			if err != nil {
				t.Fatal(err)
			}
			if err := r.s.SaveFile(r.snap, seq); err != nil {
				t.Fatal(err)
			}
			r.d.Close() // crash before RemoveBelow: stale segments linger
			info := recoverAndCompare(t, r, want)
			if info.Retired == 0 {
				t.Error("recovery did not finish the interrupted retention")
			}
			if info.Applied != 0 {
				t.Errorf("replayed %d records the snapshot already contains", info.Applied)
			}
		})
	})

	t.Run("mid-retention", func(t *testing.T) {
		forEachCell(t, func(t *testing.T, c crashCell) {
			r, want := setup(t, c)
			seq, err := r.d.Rotate()
			if err != nil {
				t.Fatal(err)
			}
			if err := r.s.SaveFile(r.snap, seq); err != nil {
				t.Fatal(err)
			}
			r.d.Close()
			// Retention got through some of the stale segments (the only
			// one, with one segment) before dying.
			removed := 0
			for i := int64(1); i < seq && removed < 2; i++ {
				if err := os.Remove(filepath.Join(r.dir, fmt.Sprintf("wal-%06d.log", i))); err == nil {
					removed++
				}
			}
			if removed == 0 {
				t.Fatal("no stale segments to half-remove")
			}
			recoverAndCompare(t, r, want)
		})
	})

	t.Run("completed", func(t *testing.T) {
		forEachCell(t, func(t *testing.T, c crashCell) {
			r, want := setup(t, c)
			if err := CheckpointDir(r.s, r.snap, r.d); err != nil {
				t.Fatal(err)
			}
			r.d.Close()
			info := recoverAndCompare(t, r, want)
			if info.Applied != 0 || info.Retired != 0 {
				t.Errorf("clean checkpoint left work for recovery: %+v", info)
			}
		})
	})

	t.Run("post-checkpoint-mutations", func(t *testing.T) {
		forEachCell(t, func(t *testing.T, c crashCell) {
			r, _ := setup(t, c)
			if err := CheckpointDir(r.s, r.snap, r.d); err != nil {
				t.Fatal(err)
			}
			if _, err := r.s.NewTripleS("gov", "gov:late", "gov:p", "gov:o", govAliases()); err != nil {
				t.Fatal(err)
			}
			want := fingerprint(t, r.s)
			r.d.Close()
			info := recoverAndCompare(t, r, want)
			if info.Applied == 0 {
				t.Error("post-checkpoint mutations were not replayed")
			}
		})
	})
}
