package wal

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"syscall"
)

// Fault injection for crash testing. A FaultInjector interposes on every
// segment file a Dir writes (DirOptions.Wrap) and misbehaves once, at one
// byte offset counted across all of them in write order, modelling the
// three ways a crash interacts with an append-only log:
//
//   - FailStop: the write that would reach the offset fails atomically —
//     the process dies between writes, and every file ends where its last
//     whole write left it.
//   - ShortWrite: the write tears mid-frame at the offset — the classic
//     torn write of a crash during write(2).
//   - CorruptByte: the byte at the offset is bit-flipped but writing
//     continues — latent media corruption that only the checksum catches.
//
// Once FailStop or ShortWrite fires, every later write and sync fails as
// if the process had died. Syncs are otherwise skipped: the crash-point
// matrix in internal/core reads the files back through the page cache,
// and real fsyncs would dominate its thousands of runs.

// FaultMode selects the misbehavior.
type FaultMode int

// The fault modes.
const (
	FailStop FaultMode = iota
	ShortWrite
	CorruptByte
)

// String names the mode for test labels.
func (m FaultMode) String() string {
	switch m {
	case FailStop:
		return "FailStop"
	case ShortWrite:
		return "ShortWrite"
	case CorruptByte:
		return "CorruptByte"
	default:
		return "FaultMode(?)"
	}
}

// ErrInjected is returned by a tripped FaultInjector or an armed FlakyFile.
var ErrInjected = errors.New("wal: injected fault")

// FaultInjector injects one fault at byte FailAt of everything written
// through the files it wraps. Pass its Wrap method as DirOptions.Wrap.
type FaultInjector struct {
	// FailAt is the offset, counting every byte written through any
	// wrapped file (segment headers included), at which the fault fires.
	FailAt int64
	// Mode selects what happens at FailAt.
	Mode FaultMode

	mu      sync.Mutex
	written int64
	tripped bool
	open    []File // every wrapped file, for CloseAll after a crash
}

// Wrap interposes the injector on f.
func (inj *FaultInjector) Wrap(f File) File {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.open = append(inj.open, f)
	return &faultFile{inj: inj, inner: f}
}

// Written returns the number of bytes that reached the wrapped files.
func (inj *FaultInjector) Written() int64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.written
}

// CloseAll closes every file the injector wrapped — the handles a
// crashed Dir abandons.
func (inj *FaultInjector) CloseAll() {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for _, f := range inj.open {
		f.Close()
	}
	inj.open = nil
}

// faultFile is one file wrapped by a FaultInjector.
type faultFile struct {
	inj   *FaultInjector
	inner File
}

// Write passes p through, injecting the fault when the write crosses
// FailAt.
func (f *faultFile) Write(p []byte) (int, error) {
	inj := f.inj
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.tripped {
		return 0, ErrInjected
	}
	end := inj.written + int64(len(p))
	if end <= inj.FailAt || inj.Mode == CorruptByte {
		if inj.Mode == CorruptByte && inj.written <= inj.FailAt && inj.FailAt < end {
			// Flip one bit at the fault offset, then carry on as if the
			// write succeeded — silent corruption.
			q := append([]byte(nil), p...)
			q[inj.FailAt-inj.written] ^= 0x01
			p = q
		}
		n, err := f.inner.Write(p)
		inj.written += int64(n)
		return n, err
	}
	inj.tripped = true
	if inj.Mode == FailStop {
		return 0, ErrInjected // nothing of this write lands
	}
	n := 0 // ShortWrite: the prefix before FailAt lands, then the crash
	if cut := int(inj.FailAt - inj.written); cut > 0 {
		n, _ = f.inner.Write(p[:cut])
		inj.written += int64(n)
	}
	return n, ErrInjected
}

// Sync fails once the fault has fired and is skipped otherwise.
func (f *faultFile) Sync() error {
	f.inj.mu.Lock()
	defer f.inj.mu.Unlock()
	if f.inj.tripped {
		return ErrInjected
	}
	return nil
}

// Close closes the wrapped file.
func (f *faultFile) Close() error { return f.inner.Close() }

// FlakyFile models a disk that misbehaves *transiently*: writes or syncs
// fail for a while and then start succeeding again — a controller reset,
// a full-then-freed filesystem, an NFS hiccup. Where a FaultInjector dies
// at one byte offset forever (crash modelling), a FlakyFile is the substrate
// for degraded-mode testing: the store must reject mutations cleanly
// while the fault lasts and recover once it clears.
//
// Two injection modes compose:
//
//   - counted: FailWrites(n)/FailSyncs(n)/FailWithENOSPC(n) arm the next
//     n calls to fail, after which calls succeed again ("fail N times
//     then succeed");
//   - rated: SetErrorRate(writeRate, syncRate, seed) and
//     SetNoSpaceRate(rate, seed) make each call fail with the given
//     probability, deterministically from the seed.
//
// By default a failing write is atomic (nothing lands), so the backing
// image never tears mid-frame; SetPartialWriteFraction opts into torn
// writes, where a failing write lands a prefix first — the shape a real
// ENOSPC takes when write(2) runs out of blocks partway. When inner is
// nil the FlakyFile is its own in-memory backing store; otherwise
// successful calls pass through to inner (a segment's *os.File, via
// DirOptions.Wrap), so the surviving on-disk image is real.
type FlakyFile struct {
	mu    sync.Mutex
	inner File   // nil = self-backed in-memory image
	buf   []byte // in-memory image when inner == nil

	failWrites  int // remaining forced write failures
	failSyncs   int // remaining forced sync failures
	failNoSpace int // remaining forced ENOSPC write failures
	writeRate   float64
	syncRate    float64
	noSpaceRate float64
	partialFrac float64 // fraction of a failing write that lands anyway
	rng         *rand.Rand

	writeFails   int // total injected write failures (for assertions)
	syncFails    int // total injected sync failures
	noSpaceFails int // total injected ENOSPC failures
	closed       bool
}

// NewFlaky wraps inner (nil for a self-backed in-memory file) with no
// faults armed.
func NewFlaky(inner File) *FlakyFile {
	return &FlakyFile{inner: inner}
}

// FailWrites arms the next n Write calls to fail (atomically: nothing is
// written). Cumulative with any previously armed failures.
func (f *FlakyFile) FailWrites(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failWrites += n
}

// FailSyncs arms the next n Sync calls to fail.
func (f *FlakyFile) FailSyncs(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failSyncs += n
}

// FailWithENOSPC arms the next n Write calls to fail with an error that
// wraps syscall.ENOSPC (wal.IsNoSpace matches it) — a full filesystem,
// without filling a real disk. Combine with SetPartialWriteFraction for
// the mid-write form where some blocks land before the disk runs out.
func (f *FlakyFile) FailWithENOSPC(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failNoSpace += n
}

// SetNoSpaceRate makes every Write fail with ENOSPC with the given
// probability, driven by a deterministic PRNG (seed is used only when no
// PRNG was seeded yet via SetErrorRate). A rate of 0 disables the mode.
func (f *FlakyFile) SetNoSpaceRate(rate float64, seed int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.noSpaceRate = rate
	if f.rng == nil {
		f.rng = rand.New(rand.NewSource(seed))
	}
}

// SetPartialWriteFraction makes injected write failures tear instead of
// failing atomically: roughly frac of the payload lands before the error
// is returned (always at least one byte short of the whole write). 0
// restores atomic failures.
func (f *FlakyFile) SetPartialWriteFraction(frac float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.partialFrac = frac
}

// SetErrorRate makes every Write fail with probability writeRate and
// every Sync with probability syncRate, driven by a deterministic PRNG
// seeded with seed. Rates of 0 disable the mode.
func (f *FlakyFile) SetErrorRate(writeRate, syncRate float64, seed int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeRate = writeRate
	f.syncRate = syncRate
	f.rng = rand.New(rand.NewSource(seed))
}

// InjectedFailures reports how many writes and syncs have been failed so
// far (ENOSPC failures count as write failures).
func (f *FlakyFile) InjectedFailures() (writes, syncs int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writeFails, f.syncFails
}

// InjectedNoSpace reports how many writes were failed with ENOSPC.
func (f *FlakyFile) InjectedNoSpace() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.noSpaceFails
}

// failWriteLocked decides whether this write fails. Caller holds f.mu.
func (f *FlakyFile) failWriteLocked() bool {
	if f.failWrites > 0 {
		f.failWrites--
		return true
	}
	return f.writeRate > 0 && f.rng != nil && f.rng.Float64() < f.writeRate
}

// failNoSpaceLocked decides whether this write fails with ENOSPC.
// Caller holds f.mu.
func (f *FlakyFile) failNoSpaceLocked() bool {
	if f.failNoSpace > 0 {
		f.failNoSpace--
		return true
	}
	return f.noSpaceRate > 0 && f.rng != nil && f.rng.Float64() < f.noSpaceRate
}

// failSyncLocked decides whether this sync fails. Caller holds f.mu.
func (f *FlakyFile) failSyncLocked() bool {
	if f.failSyncs > 0 {
		f.failSyncs--
		return true
	}
	return f.syncRate > 0 && f.rng != nil && f.rng.Float64() < f.syncRate
}

// Write appends p, or fails when a fault is armed or drawn: atomically
// by default, tearing a prefix in when SetPartialWriteFraction is set.
func (f *FlakyFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, fmt.Errorf("%w: write on closed file", ErrInjected)
	}
	var ferr error
	switch {
	case f.failNoSpaceLocked():
		f.noSpaceFails++
		f.writeFails++
		ferr = fmt.Errorf("%w: injected disk full: %w", ErrInjected, syscall.ENOSPC)
	case f.failWriteLocked():
		f.writeFails++
		ferr = fmt.Errorf("%w: transient write failure", ErrInjected)
	}
	if ferr != nil {
		n := 0
		if f.partialFrac > 0 && len(p) > 0 {
			n = int(float64(len(p)) * f.partialFrac)
			if n >= len(p) {
				n = len(p) - 1 // a "partial" write must actually be short
			}
		}
		if n > 0 {
			if err := f.landLocked(p[:n]); err != nil {
				return 0, err
			}
		}
		return n, ferr
	}
	if err := f.landLocked(p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// landLocked writes p to the backing store. Caller holds f.mu.
func (f *FlakyFile) landLocked(p []byte) error {
	if f.inner != nil {
		n, err := f.inner.Write(p)
		if err == nil && n < len(p) {
			return io.ErrShortWrite
		}
		return err
	}
	f.buf = append(f.buf, p...)
	return nil
}

// Sync flushes, or fails when a fault is armed or drawn.
func (f *FlakyFile) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("%w: sync on closed file", ErrInjected)
	}
	if f.failSyncLocked() {
		f.syncFails++
		return fmt.Errorf("%w: transient sync failure", ErrInjected)
	}
	if f.inner != nil {
		return f.inner.Sync()
	}
	return nil
}

// Truncate and Seek forward to the inner file, so a Dir can roll a torn
// write back through the wrapper.
func (f *FlakyFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	t, ok := f.inner.(truncatable)
	if !ok {
		return fmt.Errorf("wal: inner file %T does not support Truncate", f.inner)
	}
	return t.Truncate(size)
}

// Seek: see Truncate.
func (f *FlakyFile) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t, ok := f.inner.(truncatable)
	if !ok {
		return 0, fmt.Errorf("wal: inner file %T does not support Seek", f.inner)
	}
	return t.Seek(offset, whence)
}

// Close closes the file; later writes and syncs fail.
func (f *FlakyFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	if f.inner != nil {
		return f.inner.Close()
	}
	return nil
}

// Bytes returns the in-memory image (self-backed files only).
func (f *FlakyFile) Bytes() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]byte(nil), f.buf...)
}
