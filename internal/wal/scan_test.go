package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// frameOf frames an arbitrary payload with a correct length and checksum.
func frameOf(payload []byte) []byte {
	b := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// streamed scans b through r and renders every record inside its callback
// — the only time a streamed record may be read.
func streamed(t *testing.T, b []byte, oneByteReads bool) ([]string, ScanResult, error) {
	t.Helper()
	var r = bytes.NewReader(b)
	var seen []string
	fn := func(rec *Record) error {
		seen = append(seen, fmt.Sprintf("%+v", *rec))
		return nil
	}
	if oneByteReads {
		res, err := ScanFunc(iotest.OneByteReader(r), fn)
		return seen, res, err
	}
	res, err := ScanFunc(r, fn)
	return seen, res, err
}

// FuzzScan: whatever the bytes, the scanner does not panic, reading them a
// byte at a time (every frame straddles a refill) finds what reading them
// whole finds, and the collecting readers return the records the streaming
// one showed its callback — still intact once the input is gone.
func FuzzScan(f *testing.F) {
	img := writeSample(f)
	f.Add(img)                                  // a real segment
	f.Add(img[:len(img)-3])                     // torn payload
	f.Add(img[:len(Magic)+5])                   // torn frame header
	f.Add([]byte(Magic[:5]))                    // torn file header
	f.Add(append([]byte(nil), "NOTAWAL!xx"...)) // wrong file
	flipped := append([]byte(nil), img...)
	flipped[len(Magic)+frameHeaderLen+2] ^= 0x40 // bad CRC in the first record
	f.Add(flipped)
	f.Add(append([]byte(Magic), 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0))                       // implausible length
	f.Add(append([]byte(Magic), frameOf([]byte{0x7E, 1, 2})...))                           // checksummed, unknown type
	f.Add(append([]byte(Magic), frameOf([]byte{byte(TypeInternValue), 2, 0xFF, 0xFF})...)) // checksummed, short string
	f.Fuzz(func(t *testing.T, b []byte) {
		whole, wres, werr := streamed(t, b, false)
		bytewise, bres, berr := streamed(t, b, true)
		if (werr == nil) != (berr == nil) || !reflect.DeepEqual(whole, bytewise) ||
			wres.ValidBytes != bres.ValidBytes || wres.Truncated != bres.Truncated {
			t.Fatalf("whole read: %d records, valid %d, truncated %v, err %v\nbytewise:   %d records, valid %d, truncated %v, err %v",
				len(whole), wres.ValidBytes, wres.Truncated, werr, len(bytewise), bres.ValidBytes, bres.Truncated, berr)
		}
		if wres.ValidBytes > int64(len(b)) || (werr != nil && !errors.Is(werr, ErrNotWAL)) {
			t.Fatalf("valid %d of %d bytes, err %v", wres.ValidBytes, len(b), werr)
		}
		input := append([]byte(nil), b...)
		cres, cerr := scanBytes(input)
		for i := range input {
			input[i] = 0xAA
		}
		if (cerr == nil) != (werr == nil) || cres.ValidBytes != wres.ValidBytes || cres.Truncated != wres.Truncated || len(cres.Records) != len(whole) {
			t.Fatalf("collected %d records, valid %d, truncated %v, err %v; streamed %d, %d, %v, %v",
				len(cres.Records), cres.ValidBytes, cres.Truncated, cerr, len(whole), wres.ValidBytes, wres.Truncated, werr)
		}
		for i, rec := range cres.Records {
			if got := fmt.Sprintf("%+v", rec); got != whole[i] {
				t.Fatalf("record %d collected as %s, streamed as %s", i, got, whole[i])
			}
		}
	})
}

// TestScannedRecordsDoNotAliasAfterCollect: a collected record owns its
// strings. The scanner's window is pooled and the next scan overwrites it,
// and the caller's input is the caller's to reuse.
func TestScannedRecordsDoNotAliasAfterCollect(t *testing.T) {
	img := writeSample(t)
	res, err := scanBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	for i := range img {
		img[i] = 0xFF
	}
	other := []byte(Magic)
	for i := 0; i < 64; i++ {
		r := Record{Type: TypeCreateModel, ModelID: 1, Name: strings.Repeat("X", 40), TableName: strings.Repeat("Y", 40), ColumnName: "ZZZZ"}
		other = appendFrame(other, &r)
	}
	for i := 0; i < 4; i++ {
		if _, err := scanBytes(other); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(res.Records, sampleRecords()) {
		t.Fatalf("collected records changed under a later scan:\n got %+v\nwant %+v", res.Records, sampleRecords())
	}
}

// TestScanAcrossSlabsAndWindows: more records than one slab decodes ahead,
// and one record larger than the read window.
func TestScanAcrossSlabsAndWindows(t *testing.T) {
	var want []Record
	for i := 0; i < 3*scanSlab+7; i++ {
		want = append(want, Record{Type: TypeInternValue, ValueID: int64(i), Text: fmt.Sprintf("http://value/%d", i), ValueType: "UR"})
	}
	want = append(want, Record{Type: TypeInternValue, ValueID: 1 << 40, Text: strings.Repeat("long ", scanWindow/4), ValueType: "PLL"})
	want = append(want, Record{Type: TypeDeleteLink, LinkID: 9})
	img := []byte(Magic)
	for i := range want {
		img = appendFrame(img, &want[i])
	}
	res, err := scanBytes(img)
	if err != nil || res.Truncated || res.ValidBytes != int64(len(img)) {
		t.Fatalf("scan: valid %d of %d, truncated %v (%v), err %v", res.ValidBytes, len(img), res.Truncated, res.TailErr, err)
	}
	if !reflect.DeepEqual(res.Records, want) {
		t.Fatal("records differ from what was appended")
	}
	// The callback's error stops the scan and comes back as it went in.
	stop := errors.New("stop")
	n := 0
	_, err = ScanFunc(bytes.NewReader(img), func(*Record) error {
		if n++; n == scanSlab+3 {
			return stop
		}
		return nil
	})
	if err != stop || n != scanSlab+3 {
		t.Fatalf("callback error: scan returned %v after %d records", err, n)
	}
}
