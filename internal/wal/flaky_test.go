package wal

import (
	"bytes"
	"errors"
	"testing"
)

// TestFlakyFileCountedFaults: FailWrites(n)/FailSyncs(n) fail exactly the
// next n calls and then succeed, with failing writes landing nothing.
func TestFlakyFileCountedFaults(t *testing.T) {
	f := NewFlaky(nil)
	if _, err := f.Write([]byte("ok1")); err != nil {
		t.Fatalf("unarmed write failed: %v", err)
	}
	f.FailWrites(2)
	for i := 0; i < 2; i++ {
		if n, err := f.Write([]byte("lost")); !errors.Is(err, ErrInjected) || n != 0 {
			t.Fatalf("armed write %d: n=%d err=%v, want 0, ErrInjected", i, n, err)
		}
	}
	if _, err := f.Write([]byte("ok2")); err != nil {
		t.Fatalf("write after faults drained: %v", err)
	}
	if got := string(f.Bytes()); got != "ok1ok2" {
		t.Fatalf("image %q, want %q (failed writes must land nothing)", got, "ok1ok2")
	}

	f.FailSyncs(1)
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed sync: %v, want ErrInjected", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync after fault drained: %v", err)
	}
	w, s := f.InjectedFailures()
	if w != 2 || s != 1 {
		t.Fatalf("InjectedFailures = (%d,%d), want (2,1)", w, s)
	}
}

// TestFlakyFileErrorRate: the rated mode fails a deterministic subset of
// calls; successes still append, failures never do.
func TestFlakyFileErrorRate(t *testing.T) {
	f := NewFlaky(nil)
	f.SetErrorRate(0.5, 0, 42)
	var ok int
	for i := 0; i < 200; i++ {
		if _, err := f.Write([]byte("x")); err == nil {
			ok++
		} else if !errors.Is(err, ErrInjected) {
			t.Fatalf("unexpected error kind: %v", err)
		}
	}
	fails, _ := f.InjectedFailures()
	if ok+fails != 200 {
		t.Fatalf("ok %d + fails %d != 200", ok, fails)
	}
	if ok == 0 || fails == 0 {
		t.Fatalf("rate 0.5 produced ok=%d fails=%d; both should occur", ok, fails)
	}
	if len(f.Bytes()) != ok {
		t.Fatalf("image holds %d bytes, %d writes succeeded", len(f.Bytes()), ok)
	}
}

// TestFlakyFileWrapsRealFile: wrapped around a Dir's segment, injected
// failures leave the on-disk image a valid WAL holding exactly the
// acknowledged records.
func TestFlakyFileWrapsRealFile(t *testing.T) {
	var ff *FlakyFile
	d, seg := openSegment(t, func(f File) File {
		ff = NewFlaky(f)
		return ff
	})
	good := Record{Type: TypeInternValue, ValueID: 1068, Text: "http://a", ValueType: "UR"}
	if err := d.Append(good); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit(); err != nil {
		t.Fatal(err)
	}
	ff.FailWrites(1)
	if err := d.Append(Record{Type: TypeInternValue, ValueID: 1069, Text: "lost", ValueType: "UR"}); err != nil {
		t.Fatal(err)
	}
	if err := d.Commit(); !errors.Is(err, ErrInjected) {
		t.Fatalf("commit through armed fault: %v, want ErrInjected", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := ScanFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatalf("atomic write failure must not tear the log: %v", res.TailErr)
	}
	if len(res.Records) != 1 || res.Records[0].Text != "http://a" {
		t.Fatalf("disk holds %d records %+v, want just the acknowledged one", len(res.Records), res.Records)
	}
}

// TestFlakyFileENOSPC: FailWithENOSPC fails exactly the next n writes
// with an error in the ENOSPC family (IsNoSpace matches), atomically by
// default, then recovers.
func TestFlakyFileENOSPC(t *testing.T) {
	f := NewFlaky(nil)
	f.FailWithENOSPC(2)
	for i := 0; i < 2; i++ {
		n, err := f.Write([]byte("doomed"))
		if err == nil || n != 0 {
			t.Fatalf("armed ENOSPC write %d: n=%d err=%v", i, n, err)
		}
		if !IsNoSpace(err) {
			t.Fatalf("IsNoSpace(%v) = false", err)
		}
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("ENOSPC injection lost ErrInjected: %v", err)
		}
	}
	if _, err := f.Write([]byte("ok")); err != nil {
		t.Fatalf("write after ENOSPC burst: %v", err)
	}
	if got := f.InjectedNoSpace(); got != 2 {
		t.Errorf("InjectedNoSpace = %d, want 2", got)
	}
	if w, _ := f.InjectedFailures(); w != 2 {
		t.Errorf("ENOSPC failures not counted as write failures: %d", w)
	}
	if !bytes.Equal(f.Bytes(), []byte("ok")) {
		t.Errorf("image = %q, want only the successful write", f.Bytes())
	}
}

// TestFlakyFileNoSpaceRate: rated ENOSPC injection is deterministic from
// the seed and fails roughly the requested fraction.
func TestFlakyFileNoSpaceRate(t *testing.T) {
	run := func() (fails int, image []byte) {
		f := NewFlaky(nil)
		f.SetNoSpaceRate(0.5, 42)
		for i := 0; i < 200; i++ {
			if _, err := f.Write([]byte{byte(i)}); err != nil && !IsNoSpace(err) {
				t.Fatalf("write %d: non-ENOSPC error %v", i, err)
			}
		}
		return f.InjectedNoSpace(), f.Bytes()
	}
	fails1, img1 := run()
	fails2, img2 := run()
	if fails1 != fails2 || !bytes.Equal(img1, img2) {
		t.Fatalf("same seed diverged: %d vs %d failures", fails1, fails2)
	}
	if fails1 < 50 || fails1 > 150 {
		t.Errorf("rate 0.5 over 200 writes failed %d times", fails1)
	}
}

// TestFlakyFilePartialWrite: SetPartialWriteFraction turns failing writes
// into torn ones — a prefix lands, but always at least one byte short.
func TestFlakyFilePartialWrite(t *testing.T) {
	f := NewFlaky(nil)
	f.SetPartialWriteFraction(0.5)
	f.FailWithENOSPC(1)
	payload := []byte("0123456789")
	n, err := f.Write(payload)
	if err == nil || !IsNoSpace(err) {
		t.Fatalf("torn ENOSPC write: n=%d err=%v", n, err)
	}
	if n != 5 {
		t.Errorf("landed %d bytes of 10 at fraction 0.5, want 5", n)
	}
	if !bytes.Equal(f.Bytes(), payload[:n]) {
		t.Errorf("image %q does not match the reported prefix", f.Bytes())
	}

	// Even fraction 1.0 must stay short of the full write.
	f2 := NewFlaky(nil)
	f2.SetPartialWriteFraction(1.0)
	f2.FailWrites(1)
	n, err = f2.Write(payload)
	if err == nil {
		t.Fatal("armed write succeeded")
	}
	if n >= len(payload) {
		t.Errorf("partial write landed the whole payload (n=%d)", n)
	}

	// A torn frame is exactly what recovery truncates: write a valid log
	// through a tearing file and prove the scan survives.
	f3 := NewFlaky(nil)
	first, second := Record{Type: TypeDeleteLink, LinkID: 1}, Record{Type: TypeDeleteLink, LinkID: 2}
	if _, err := f3.Write(appendFrame([]byte(Magic), &first)); err != nil {
		t.Fatal(err)
	}
	f3.SetPartialWriteFraction(0.4)
	f3.FailWithENOSPC(1)
	if _, err := f3.Write(appendFrame(nil, &second)); err == nil {
		t.Fatal("torn append reported success")
	}
	res, err := scanBytes(f3.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("torn frame not detected by scan")
	}
	if len(res.Records) != 1 || res.Records[0].LinkID != 1 {
		t.Fatalf("surviving prefix = %+v", res.Records)
	}
}
