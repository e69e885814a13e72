package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/trace"
	"repro/internal/wal"
)

// Atomic checkpoint persistence. A checkpoint must never leave a
// half-written snapshot shadowing the previous good one: SaveFile stages
// the image in a sibling *.tmp file, fsyncs it, renames it over the
// target (atomic on POSIX filesystems), and fsyncs the directory so the
// rename itself is durable. A crash at any point leaves either the old
// snapshot or the new one — plus, at worst, a stray *.tmp that recovery
// removes.

// tmpSuffix marks an in-progress snapshot write.
const tmpSuffix = ".tmp"

// SaveFile writes a snapshot of the store to path atomically.
func (s *Store) SaveFile(path string) error {
	return s.SaveFileAt(path, 0)
}

// SaveFileAt is SaveFile recording walSeq as the WAL watermark (see
// SaveAt).
func (s *Store) SaveFileAt(path string, walSeq int64) error {
	tmp := path + tmpSuffix
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := s.SaveAt(f, walSeq); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: checkpoint: publishing %s: %w", path, err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-completed rename survives a crash.
// Filesystems that refuse to fsync directories (some network mounts) are
// tolerated: the rename is still atomic, only its durability ordering is
// weaker.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}

// RemoveStaleSnapshot deletes the *.tmp left behind by a checkpoint that
// crashed before its rename. Call before loading a snapshot; a missing
// tmp is not an error.
func RemoveStaleSnapshot(path string) {
	os.Remove(path + tmpSuffix)
}

// LoadFile rebuilds a store from the snapshot at path, first removing
// any stale in-progress *.tmp sibling. The *.tmp is never loaded — it
// may be truncated mid-write — so a crash during checkpoint can only
// surface the previous good snapshot.
func LoadFile(path string) (*Store, error) {
	s, _, err := LoadFileAt(path)
	return s, err
}

// LoadFileAt is LoadFile returning also the snapshot's WAL watermark (0
// when the snapshot was saved without one).
func LoadFileAt(path string) (*Store, int64, error) {
	RemoveStaleSnapshot(path)
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return LoadAt(f)
}

// loadOrNew is the first step of a recovery: the store of the snapshot at
// snapPath with its WAL watermark, or a fresh store when snapPath is empty
// or names no file yet.
func loadOrNew(snapPath string) (*Store, int64, time.Duration, error) {
	if snapPath != "" {
		t0 := time.Now()
		s, walSeq, err := LoadFileAt(snapPath)
		if err == nil {
			return s, walSeq, time.Since(t0), nil
		}
		if !os.IsNotExist(err) {
			return nil, 0, 0, err
		}
	}
	return New(), 0, 0, nil
}

// CheckpointDir makes the store's current state the new durable
// baseline and reclaims the log's space, in three steps:
//
//  1. Rotate — every mutation the snapshot will contain now lives in
//     segments below the fresh segment's number N.
//  2. SaveFileAt(snapPath, N) — the snapshot lands atomically, recording
//     N as its watermark.
//  3. RemoveBelow(N) — the old segments are deleted.
//
// A crash before 2 leaves extra segments that replay idempotently onto
// the old snapshot; a crash between 2 and 3 leaves segments below the
// new snapshot's watermark, which recovery deletes instead of replaying
// (wal.OpenDir finishes the retention). No window double-applies or
// loses an acked commit. Readers proceed throughout (Save holds only the
// read lock); the caller must ensure no mutation commits for the
// duration — the supervisor excludes mutations, single-threaded CLIs get
// it for free.
func CheckpointDir(s *Store, snapPath string, d *wal.Dir) error {
	return CheckpointDirCtx(context.Background(), s, snapPath, d)
}

// CheckpointDirCtx is CheckpointDir recording its phases — rotate,
// snapshot write, retention — on the span carried by ctx. The context is
// not consulted for cancellation: a checkpoint, once started, must reach
// one of its documented crash-safe states.
func CheckpointDirCtx(ctx context.Context, s *Store, snapPath string, d *wal.Dir) error {
	t0 := s.met.startTimer()
	sp := trace.FromContext(ctx)
	phase := sp.Child("core.wal_rotate")
	seq, err := d.Rotate()
	phase.SetInt("watermark", seq)
	if endPhase(phase, err) != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	phase = sp.Child("core.snapshot")
	phase.SetAttr("path", snapPath)
	if err := endPhase(phase, s.SaveFileAt(snapPath, seq)); err != nil {
		return err
	}
	phase = sp.Child("core.wal_retention")
	removed, err := d.RemoveBelow(seq)
	phase.SetInt("removed_segments", int64(removed))
	if endPhase(phase, err) != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	s.met.onCheckpoint(t0)
	return nil
}

// endPhase ends a traced phase, failed when err is non-nil, and returns
// err. Nil-safe: untraced paths never read the clock.
func endPhase(phase *trace.Span, err error) error {
	phase.SetError(err)
	phase.End()
	return err
}

// RecoverDir rebuilds a store from an on-disk checkpoint + WAL
// directory: stale snapshot tmp removed, snapshot loaded when present
// (fresh store otherwise), segments below the snapshot's watermark
// deleted, the rest scanned (torn tail tolerated in the final segment
// only) and replayed. The returned Dir is positioned for appending.
func RecoverDir(snapPath, walDir string, opts wal.DirOptions) (*Store, *wal.Dir, RecoverInfo, error) {
	return RecoverDirWith(snapPath, walDir, opts, wal.OpenDirFunc)
}

// RecoverDirWith is RecoverDir with an injectable opener (tests
// substitute fault-wrapped segment files). The opener hands the
// segments' records to fn as it reads them.
func RecoverDirWith(snapPath, walDir string, opts wal.DirOptions,
	openDir func(dir string, fromSeq int64, opts wal.DirOptions, fn wal.RecordFunc) (*wal.Dir, wal.DirScanResult, error)) (*Store, *wal.Dir, RecoverInfo, error) {
	s, walSeq, restore, err := loadOrNew(snapPath)
	if err != nil {
		return nil, nil, RecoverInfo{}, err
	}
	var d *wal.Dir
	var res wal.DirScanResult
	info, err := s.replayStream(restore, func(apply wal.RecordFunc) (_ wal.ScanResult, err error) {
		d, res, err = openDir(walDir, walSeq, opts, apply)
		return wal.ScanResult{ValidBytes: res.TotalBytes, Truncated: res.Truncated, TailErr: res.TailErr, ScanTime: res.ScanTime}, err
	})
	if err != nil {
		return nil, nil, RecoverInfo{}, err
	}
	info.Segments, info.Retired = res.Segments, res.Removed
	return s, d, info, nil
}
