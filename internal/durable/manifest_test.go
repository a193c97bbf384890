package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// sealManifest appends the checksum WriteManifest would, so a hand-edited
// or fuzzed body reaches the parser instead of failing the CRC.
func sealManifest(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32Sum(body))
}

// allocDuring returns the bytes fn allocated.
func allocDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestManifestSegmentCountBomb: a CRC-valid manifest whose segment count
// claims more references than its body can hold is rejected before
// anything is sized from the count. A count of 2^20 in a 116-byte file
// once allocated 24 MiB of SegmentRefs before the decode failed.
func TestManifestSegmentCountBomb(t *testing.T) {
	body := appendManifest(nil, &Manifest{Seq: 1, L: 4})
	// An empty manifest ends with the segment count and the three empty
	// section counts (Dead, KeyedKeys, KeyedIDs).
	binary.LittleEndian.PutUint32(body[len(body)-16:], 1<<20)
	data := sealManifest(body)
	var err error
	grew := allocDuring(func() { _, err = decodeManifest("bomb", data) })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode of a %d-byte manifest claiming 2^20 segments: err = %v, want ErrCorrupt", len(data), err)
	}
	if grew > 1<<16 {
		t.Fatalf("decode of a %d-byte manifest allocated %d bytes", len(data), grew)
	}
}

// FuzzDecodeManifest feeds arbitrary manifest bodies to the decoder,
// re-sealing the checksum so every mutation reaches the parser. It must
// never panic, and what it allocates must stay within a constant factor
// of the input: a corrupted count may not size a table (a length-prefix
// bomb).
func FuzzDecodeManifest(f *testing.F) {
	full := appendManifest(nil, &Manifest{
		Seq: 3, Watermark: Pos{Seq: 2, Off: 40}, NextSeg: 2, Seed: 7, L: 4,
		IDBound: 9, Epoch: 12, GCCollected: 1, GCReclaimed: 8,
		Segments: []SegmentRef{{Name: SegmentName(0), Rows: 5}, {Name: SegmentName(1), Base: 5, Rows: 4}},
		Dead:     []uint64{0b101}, KeyedKeys: []uint64{11, 12}, KeyedIDs: []int32{1, 7},
	})
	empty := appendManifest(nil, &Manifest{Seq: 1, L: 4, Shards: 2, Routing: 1})
	for _, seed := range [][]byte{full, empty, full[:len(full)/2], full[:len(full)-3], empty[:len(empty)-1]} {
		f.Add(bytes.Clone(seed))
	}
	// Bit flips in the segment count, the first name's length and the
	// keyed-id count: each turns a count into a claim the body cannot back.
	nsegOff := len(empty) - 16
	for _, bit := range []int{8*nsegOff + 20, 8*(nsegOff+4) + 25, 8*(len(full)-12) + 30} {
		flipped := bytes.Clone(full)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		data := sealManifest(body)
		var m *Manifest
		var err error
		// The decoder holds one SegmentRef (24 bytes) per 12 body bytes at
		// most, plus copies of names and sections no larger than the body.
		grew := allocDuring(func() { m, err = decodeManifest("fuzz", data) })
		if bound := uint64(16*len(data) + 1<<16); grew > bound {
			t.Fatalf("decoding a %d-byte manifest allocated %d bytes (bound %d)", len(data), grew, bound)
		}
		if err == nil && len(m.KeyedKeys) != len(m.KeyedIDs) {
			t.Fatalf("accepted manifest has %d keys for %d ids", len(m.KeyedKeys), len(m.KeyedIDs))
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decode failed with %v, want ErrCorrupt", err)
		}
	})
}
