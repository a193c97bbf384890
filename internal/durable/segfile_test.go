package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// segHeaderLen is the fixed segment header: magic, version, reps, rows.
const segHeaderLen = 20

// twoRowSegment is a small well-formed segment: two rows, one repetition.
func twoRowSegment() *SegmentData {
	return &SegmentData{
		GlobalIDs: []int32{0, 1},
		Reps: []RepData{{Keys: []uint64{5, 7}, Table: TableData{
			Mask: 3, Keys: []uint64{5, 7}, SlotBucket: []int32{0, 1}, Starts: []int32{0, 1, 2}, IDs: []int32{0, 1}}}},
		Points: [][]byte{[]byte("p0"), []byte("p1")},
	}
}

// TestSegmentHeaderBitFlips flips every bit of a committed segment's
// 20-byte header in turn: each read must fail with ErrCorrupt. The header
// counts size the decoder's allocations, so a flipped high bit of rows or
// reps must be rejected before anything is sized from it (bit 30 of rows
// once asked for a 24 GiB points table).
func TestSegmentHeaderBitFlips(t *testing.T) {
	e := testEnv(t, Options{})
	name := SegmentName(0)
	if err := e.WriteSegment(name, twoRowSegment()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(e.Dir(), name)
	for off := int64(0); off < segHeaderLen; off++ {
		for bit := uint(0); bit < 8; bit++ {
			if err := FlipBit(path, off, bit); err != nil {
				t.Fatal(err)
			}
			if _, err := e.ReadSegment(name); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("header byte %d bit %d flipped: read returned %v, want ErrCorrupt", off, bit, err)
			}
			if err := FlipBit(path, off, bit); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := e.ReadSegment(name); err != nil {
		t.Fatalf("restored segment no longer reads: %v", err)
	}
}

// FuzzReadSegment feeds arbitrary bytes to the segment reader. It must
// never panic, and what it allocates must stay within a constant factor
// of the file size: a corrupted count may not size a buffer (a
// length-prefix bomb).
func FuzzReadSegment(f *testing.F) {
	var seed bytes.Buffer
	{
		e, err := OpenEnv(f.TempDir(), Options{})
		if err != nil {
			f.Fatal(err)
		}
		if err := e.WriteSegment(SegmentName(0), twoRowSegment()); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(e.Dir(), SegmentName(0)))
		if err != nil {
			f.Fatal(err)
		}
		seed.Write(b)
	}
	good := seed.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	for _, bit := range []int{16*8 + 30, 12*8 + 16, 20*8 + 3, 8*len(good) - 40} {
		flipped := bytes.Clone(good)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}

	e, err := OpenEnv(f.TempDir(), Options{})
	if err != nil {
		f.Fatal(err)
	}
	name := SegmentName(0)
	path := filepath.Join(e.Dir(), name)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sd, err := e.ReadSegment(name)
		runtime.ReadMemStats(&after)
		// The reader holds the file, a points table of one slice header
		// per row (rows <= len/8), and per-repetition headers: well within
		// 16 bytes of allocation per file byte, plus fixed overhead.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(16*len(data)+1<<20); grew > bound {
			t.Fatalf("reading a %d-byte segment allocated %d bytes (bound %d)", len(data), grew, bound)
		}
		if err == nil && len(sd.Points) != len(sd.GlobalIDs) {
			t.Fatalf("accepted segment has %d payloads for %d ids", len(sd.Points), len(sd.GlobalIDs))
		}
	})
}
