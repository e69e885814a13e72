package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// sampleRecords exercises every record type and the encoding corner
// cases (empty strings, negative-free varints, multi-byte UTF-8).
func sampleRecords() []Record {
	return []Record{
		{Type: TypeCreateModel, ModelID: 7, Name: "gov", TableName: "ciadata", ColumnName: "triple"},
		{Type: TypeCreateModel, ModelID: 8, Name: "données", TableName: "", ColumnName: ""},
		{Type: TypeInternValue, ValueID: 1068, Text: "http://www.us.gov#MI5", ValueType: "UR"},
		{Type: TypeInternValue, ValueID: 1069, Text: "chat", ValueType: "PL@", Language: "fr"},
		{Type: TypeInternValue, ValueID: 1070, Text: "42", ValueType: "TL",
			LiteralType: "http://www.w3.org/2001/XMLSchema#int"},
		{Type: TypeInsertLink, LinkID: 2051, ModelID: 7, StartID: 1068, PropID: 1069,
			EndID: 1070, CanonID: 1071, LinkType: "STANDARD", Cost: 1, Context: "D", Reif: true},
		{Type: TypeUpdateLink, LinkID: 2051, Cost: 3, Context: "D"},
		{Type: TypeBlankNode, ModelID: 7, Name: "b1", ValueID: 1072},
		{Type: TypeSeqAdvance, Seq: SeqBlank, SeqValue: 12},
		{Type: TypeDeleteLink, LinkID: 2051},
		{Type: TypeDropModel, ModelID: 8, Name: "données"},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, want := range sampleRecords() {
		payload := appendPayload(nil, &want)
		var got Record
		if err := decodePayload(payload, &got); err != nil {
			t.Fatalf("%s: decode: %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", want.Type, got, want)
		}
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	var got Record
	if err := decodePayload([]byte{0xFF}, &got); !errors.Is(err, ErrBadRecord) {
		t.Errorf("unknown type: got %v, want ErrBadRecord", err)
	}
	r := Record{Type: TypeDeleteLink, LinkID: 9}
	payload := appendPayload(nil, &r)
	if err := decodePayload(payload[:len(payload)-1], &got); !errors.Is(err, ErrBadRecord) {
		t.Errorf("short payload: got %v, want ErrBadRecord", err)
	}
	if err := decodePayload(append(payload, 0), &got); !errors.Is(err, ErrBadRecord) {
		t.Errorf("trailing bytes: got %v, want ErrBadRecord", err)
	}
}

// isPrefix reports whether got is a prefix of full (nil == empty).
func isPrefix(got, full []Record) bool {
	if len(got) > len(full) {
		return false
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], full[i]) {
			return false
		}
	}
	return true
}

// writeSample frames all sample records into a fresh segment image.
func writeSample(t testing.TB) []byte {
	t.Helper()
	img := []byte(Magic)
	for _, r := range sampleRecords() {
		img = appendFrame(img, &r)
	}
	return img
}

// scanBytes scans an in-memory segment image, collecting its records.
func scanBytes(b []byte) (ScanResult, error) {
	var records []Record
	res, err := ScanFunc(bytes.NewReader(b), collect(&records))
	res.Records = records
	return res, err
}

func TestScanRoundTrip(t *testing.T) {
	img := writeSample(t)
	res, err := scanBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatalf("unexpected truncation: %v", res.TailErr)
	}
	if res.ValidBytes != int64(len(img)) {
		t.Errorf("ValidBytes = %d, want %d", res.ValidBytes, len(img))
	}
	if !reflect.DeepEqual(res.Records, sampleRecords()) {
		t.Errorf("records mismatch:\n got %+v\nwant %+v", res.Records, sampleRecords())
	}
}

func TestScanTornTail(t *testing.T) {
	img := writeSample(t)
	full, err := scanBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must scan without a hard error and yield a
	// prefix of the full record sequence.
	for cut := 0; cut < len(img); cut++ {
		res, err := scanBytes(img[:cut])
		if err != nil {
			t.Fatalf("cut %d: hard error %v", cut, err)
		}
		if res.ValidBytes > int64(cut) {
			t.Fatalf("cut %d: ValidBytes %d beyond data", cut, res.ValidBytes)
		}
		if !isPrefix(res.Records, full.Records) {
			t.Fatalf("cut %d: records are not a prefix", cut)
		}
		// A cut strictly inside the stream must be flagged unless it falls
		// exactly on a frame boundary past the header (cut 0 is "no file
		// yet", which is clean, not torn).
		onBoundary := cut == 0 || (res.ValidBytes == int64(cut) && cut >= len(Magic))
		if res.Truncated == onBoundary {
			t.Fatalf("cut %d: Truncated=%v, boundary=%v (%v)", cut, res.Truncated, onBoundary, res.TailErr)
		}
	}
}

func TestScanCorruptByte(t *testing.T) {
	img := writeSample(t)
	full, _ := scanBytes(img)
	// Flip one bit at every offset past the header: scanning must stop at
	// or before the damaged frame and never return damaged content.
	for off := len(Magic); off < len(img); off++ {
		bad := append([]byte(nil), img...)
		bad[off] ^= 0x01
		res, err := scanBytes(bad)
		if err != nil {
			t.Fatalf("offset %d: hard error %v", off, err)
		}
		if !res.Truncated {
			t.Fatalf("offset %d: corruption not detected", off)
		}
		if !isPrefix(res.Records, full.Records) {
			t.Fatalf("offset %d: surviving records are not a prefix", off)
		}
		if res.ValidBytes > int64(off) {
			t.Fatalf("offset %d: accepted bytes past the corruption (%d)", off, res.ValidBytes)
		}
	}
}

func TestScanBadMagic(t *testing.T) {
	if _, err := scanBytes([]byte("NOTAWAL!\x00\x00\x00\x00")); !errors.Is(err, ErrNotWAL) {
		t.Errorf("got %v, want ErrNotWAL", err)
	}
}

func TestScanEmptyAndHeaderOnly(t *testing.T) {
	res, err := scanBytes(nil)
	if err != nil || res.Truncated || len(res.Records) != 0 {
		t.Errorf("empty: res=%+v err=%v", res, err)
	}
	res, err = scanBytes([]byte(Magic))
	if err != nil || res.Truncated || res.ValidBytes != int64(len(Magic)) {
		t.Errorf("header only: res=%+v err=%v", res, err)
	}
}

// crashSample appends and commits the sample records one by one through
// a Dir whose segment is wrapped by inj, stopping at the first error (the
// crash), and returns that error with the surviving segment image.
func crashSample(t *testing.T, inj *FaultInjector) ([]byte, error) {
	t.Helper()
	dir := t.TempDir()
	d, _, err := OpenDir(dir, 0, DirOptions{Wrap: inj.Wrap})
	if err != nil {
		t.Fatal(err)
	}
	var crashErr error
	for _, r := range sampleRecords() {
		if crashErr = d.Append(r); crashErr != nil {
			break
		}
		if crashErr = d.Commit(); crashErr != nil {
			break
		}
	}
	inj.CloseAll()
	img, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	return img, crashErr
}

func TestFaultFileModes(t *testing.T) {
	// Golden image for reference.
	golden := writeSample(t)

	t.Run("FailStop", func(t *testing.T) {
		img, crashErr := crashSample(t, &FaultInjector{FailAt: 30, Mode: FailStop})
		if !errors.Is(crashErr, ErrInjected) {
			t.Fatalf("append/commit error = %v, want ErrInjected", crashErr)
		}
		// Nothing of the failing write landed: image is a strict prefix of
		// the golden image ending on a frame boundary.
		if !bytes.Equal(img, golden[:len(img)]) {
			t.Error("image is not a golden prefix")
		}
		res, err := scanBytes(img)
		if err != nil || res.Truncated {
			t.Errorf("recovery saw damage: %+v %v", res, err)
		}
	})

	t.Run("ShortWrite", func(t *testing.T) {
		inj := &FaultInjector{FailAt: 30, Mode: ShortWrite}
		img, _ := crashSample(t, inj)
		if inj.Written() != 30 {
			t.Fatalf("wrote %d bytes, want exactly 30", inj.Written())
		}
		if !bytes.Equal(img, golden[:30]) {
			t.Error("torn image is not a byte prefix of golden")
		}
		res, err := scanBytes(img)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Truncated {
			t.Error("torn tail not flagged")
		}
	})

	t.Run("CorruptByte", func(t *testing.T) {
		img, crashErr := crashSample(t, &FaultInjector{FailAt: 30, Mode: CorruptByte})
		if crashErr != nil {
			t.Fatal(crashErr) // corruption is silent; writes keep succeeding
		}
		if len(img) != len(golden) {
			t.Fatalf("image length %d, want %d", len(img), len(golden))
		}
		res, err := scanBytes(img)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Truncated {
			t.Error("checksum did not catch the flipped bit")
		}
	})
}
