package durable

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Segment files persist a frozen index segment nearly verbatim: the
// global id column, and for each of the L repetitions the per-row hash
// key column plus the flat open-addressed table (mask, slot keys, slot
// buckets, CSR starts, CSR ids) exactly as it sits in memory, followed
// by the raw point payloads. Nothing in here requires a hash evaluation
// to read back — that is the whole point.
//
// Layout (all integers little-endian):
//
//	u64 magic  "dshseg1\n"
//	u32 version
//	u32 L (repetitions)
//	u32 rows
//	i32[] globalIDs            (rows entries)
//	repeat L times:
//	  u64[] keys               (rows entries; the per-row key column)
//	  u64   table mask
//	  u64[] table slot keys
//	  i32[] table slot buckets
//	  i32[] table CSR starts
//	  i32[] table CSR ids
//	repeat rows times:
//	  u32-prefixed point payload bytes
//	u32 CRC32C of everything above
//
// Variable-length sections carry a u32 count prefix. Since version 2,
// u64 sections pad with zero bytes after the count so their data starts
// 8-byte aligned in the file: on little-endian machines the reader then
// aliases the integer columns directly into the file buffer instead of
// copying them out, which makes loading a segment O(file read) rather
// than O(element decode). The whole file is covered by one trailing
// CRC32C: segment files are immutable and read in full at recovery, so
// a single checksum is enough to reject any bit flip.
const (
	segMagic   = 0x0a3167657368_7364 // "dsh" "seg1\n" packed LE
	segVersion = 2

	// minRowBytes and minRepBytes are the least body bytes one row (its
	// id and its payload length) and one repetition (the mask and five
	// section counts) occupy; the reader rejects header counts the body
	// cannot hold before sizing anything by them.
	minRowBytes = 4 + 4
	minRepBytes = 8 + 5*4
)

// MaxRepetitions is the largest repetition count L a store may record:
// the segment reader rejects a header with more, and OpenSharded rejects
// a manifest with more before sampling that many draws.
const MaxRepetitions = 1 << 16

// TableData mirrors one repetition's flat hash table.
type TableData struct {
	Mask       uint64
	Keys       []uint64
	SlotBucket []int32
	Starts     []int32
	IDs        []int32
}

// RepData is one repetition's persisted state: the dense per-row key
// column and the lookup table built over it.
type RepData struct {
	Keys  []uint64
	Table TableData
}

// SegmentData is the serialized form of one frozen segment.
type SegmentData struct {
	GlobalIDs []int32
	Reps      []RepData
	// Points holds the encoded point payload of each row, parallel to
	// GlobalIDs (Points[i] belongs to global id GlobalIDs[i]).
	Points [][]byte
}

// SegmentName returns the file name for segment number n.
func SegmentName(n uint64) string { return fmt.Sprintf("seg-%08d.seg", n) }

// IsSegmentName reports whether name is a committed segment file.
func IsSegmentName(name string) bool {
	return strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg")
}

// WriteSegment serializes sd and commits it under name via the
// temp-fsync-rename protocol. Fault points "seg:write", "seg:sync",
// "seg:rename", "dir:sync".
func (e *Env) WriteSegment(name string, sd *SegmentData) error {
	buf := appendSegment(nil, sd)
	buf = binary.LittleEndian.AppendUint32(buf, crc32Sum(buf))
	if err := e.atomicWrite(name, buf, "seg"); err != nil {
		return err
	}
	mSegWrites.Inc(e.stripe)
	mSegWriteBytes.Add(e.stripe, uint64(len(buf)))
	return nil
}

func appendSegment(b []byte, sd *SegmentData) []byte {
	b = binary.LittleEndian.AppendUint64(b, segMagic)
	b = binary.LittleEndian.AppendUint32(b, segVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sd.Reps)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sd.GlobalIDs)))
	b = appendI32s(b, sd.GlobalIDs)
	for _, rep := range sd.Reps {
		b = appendU64sPadded(b, rep.Keys)
		b = binary.LittleEndian.AppendUint64(b, rep.Table.Mask)
		b = appendU64sPadded(b, rep.Table.Keys)
		b = appendI32s(b, rep.Table.SlotBucket)
		b = appendI32s(b, rep.Table.Starts)
		b = appendI32s(b, rep.Table.IDs)
	}
	for _, p := range sd.Points {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
		b = append(b, p...)
	}
	return b
}

// readFileParallel reads a whole file like os.ReadFile but fans large
// files out over parallel ReadAt chunks: segment files are tens of
// megabytes and read in full at recovery, where a single sequential
// read leaves most of the memory bandwidth idle.
func readFileParallel(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := info.Size()
	const chunk = 4 << 20
	if size <= chunk {
		return os.ReadFile(path)
	}
	buf := make([]byte, size)
	n := int((size + chunk - 1) / chunk)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lo := int64(i) * chunk
			hi := lo + chunk
			if hi > size {
				hi = size
			}
			_, errs[i] = f.ReadAt(buf[lo:hi], lo)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// ReadSegment reads and verifies a committed segment file.
func (e *Env) ReadSegment(name string) (*SegmentData, error) {
	data, err := readFileParallel(filepath.Join(e.dir, name))
	if err != nil {
		return nil, err
	}
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: %s: short file", ErrCorrupt, name)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	// Checksum the body concurrently with the structural decode below: the
	// cursor is bounds-checked, so decoding unverified bytes is safe — the
	// result is simply discarded if the checksum then fails. Nothing is
	// returned before the verdict arrives.
	crcOK := make(chan bool, 1)
	go func() { crcOK <- crc32Sum(body) == binary.LittleEndian.Uint32(tail) }()
	c := cursor{b: body, tot: len(body), name: name}
	if m := c.u64(); m != segMagic {
		return nil, fmt.Errorf("%w: %s: bad magic %#x", ErrCorrupt, name, m)
	}
	if v := c.u32(); v != segVersion {
		return nil, fmt.Errorf("%w: %s: unsupported version %d", ErrCorrupt, name, v)
	}
	reps := int(c.u32())
	rows := int(c.u32())
	if c.err != nil || reps < 0 || reps > MaxRepetitions || rows < 0 || rows > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %s: bad header", ErrCorrupt, name)
	}
	if room := len(c.b) - minRepBytes*reps; room < 0 || rows > room/minRowBytes {
		return nil, fmt.Errorf("%w: %s: header counts %d rows, %d repetitions in a %d-byte body", ErrCorrupt, name, rows, reps, len(body))
	}
	sd := &SegmentData{
		GlobalIDs: c.i32sAliased(),
		Reps:      make([]RepData, reps),
	}
	// The repetition sections are independent once their boundaries are
	// known, and decoding them is the bulk of recovery for a large
	// segment: skip through the sections first (cheap — counts only),
	// then widen-and-copy each repetition on its own goroutine.
	repCursors := make([]cursor, reps)
	for i := 0; i < reps && c.err == nil; i++ {
		repCursors[i] = c
		c.skipU64s() // key column
		c.skip(8)    // mask
		c.skipU64s() // table slot keys
		for j := 0; j < 3; j++ {
			c.skipI32s() // slot buckets, CSR starts, CSR ids
		}
	}
	if c.err == nil {
		var wg sync.WaitGroup
		for i := range sd.Reps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rc := &repCursors[i]
				sd.Reps[i].Keys = rc.u64sAligned()
				sd.Reps[i].Table = TableData{
					Mask:       rc.u64(),
					Keys:       rc.u64sAligned(),
					SlotBucket: rc.i32sAliased(),
					Starts:     rc.i32sAliased(),
					IDs:        rc.i32sAliased(),
				}
			}(i)
		}
		wg.Wait()
		for i := range repCursors {
			if err := repCursors[i].err; err != nil {
				return nil, fmt.Errorf("%w: %s: repetition %d: %v", ErrCorrupt, name, i, err)
			}
		}
	}
	sd.Points = make([][]byte, rows)
	for i := range sd.Points {
		sd.Points[i] = c.bytes()
	}
	if c.err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, name, c.err)
	}
	if len(sd.GlobalIDs) != rows {
		return nil, fmt.Errorf("%w: %s: id column length %d != rows %d", ErrCorrupt, name, len(sd.GlobalIDs), rows)
	}
	if !<-crcOK {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", ErrCorrupt, name)
	}
	mSegReads.Inc(e.stripe)
	return sd, nil
}

// cursor is a bounds-checked little-endian reader over a checksummed
// byte slice; the first out-of-bounds read latches err and every later
// read returns zero values. tot is the total body length, set when the
// buffer starts at file offset 0 — the aligned section readers need it
// to locate the writer's padding (plain readers never consult it).
type cursor struct {
	b    []byte
	tot  int
	name string
	err  error
}

// align8 skips the zero padding appendU64sPadded wrote after a count.
func (c *cursor) align8() {
	c.skip((8 - (c.tot-len(c.b))%8) % 8)
}

func (c *cursor) fail() {
	if c.err == nil {
		c.err = fmt.Errorf("truncated section")
	}
}

// skip advances past n bytes (latching err when fewer remain).
func (c *cursor) skip(n int) {
	if c.err != nil || n < 0 || len(c.b) < n {
		c.fail()
		return
	}
	c.b = c.b[n:]
}

// skipU64s / skipI32s step over one count-prefixed section without
// decoding it (skipU64s covers the alignment padding of
// appendU64sPadded).
func (c *cursor) skipU64s() {
	n := int(c.u32())
	if n > math.MaxInt32/8 {
		c.fail()
		return
	}
	c.align8()
	c.skip(8 * n)
}

func (c *cursor) skipI32s() {
	n := int(c.u32())
	if n > math.MaxInt32/4 {
		c.fail()
		return
	}
	c.skip(4 * n)
}

func (c *cursor) u32() uint32 {
	if c.err != nil || len(c.b) < 4 {
		c.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b)
	c.b = c.b[4:]
	return v
}

func (c *cursor) u64() uint64 {
	if c.err != nil || len(c.b) < 8 {
		c.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b)
	c.b = c.b[8:]
	return v
}

func (c *cursor) bytes() []byte {
	n := int(c.u32())
	if c.err != nil || n < 0 || len(c.b) < n {
		c.fail()
		return nil
	}
	v := c.b[:n:n]
	c.b = c.b[n:]
	return v
}

func (c *cursor) u64s() []uint64 {
	n := int(c.u32())
	if c.err != nil || n < 0 || len(c.b) < 8*n {
		c.fail()
		return nil
	}
	v := make([]uint64, n)
	copyU64sLE(v, c.b)
	c.b = c.b[8*n:]
	return v
}

// u64sAligned reads a section written by appendU64sPadded, aliasing the
// file buffer zero-copy on little-endian machines (segment columns are
// immutable once loaded, so sharing the backing array is safe).
func (c *cursor) u64sAligned() []uint64 {
	n := int(c.u32())
	if c.err != nil || n < 0 || n > math.MaxInt32/8 {
		c.fail()
		return nil
	}
	c.align8()
	if c.err != nil || len(c.b) < 8*n {
		c.fail()
		return nil
	}
	v, ok := aliasU64s(c.b, n)
	if !ok {
		v = make([]uint64, n)
		copyU64sLE(v, c.b)
	}
	c.b = c.b[8*n:]
	return v
}

// i32sAliased reads a count-prefixed i32 section, aliasing the file
// buffer zero-copy when the platform and alignment allow.
func (c *cursor) i32sAliased() []int32 {
	n := int(c.u32())
	if c.err != nil || n < 0 || len(c.b) < 4*n {
		c.fail()
		return nil
	}
	v, ok := aliasI32s(c.b, n)
	if !ok {
		v = make([]int32, n)
		copyI32sLE(v, c.b)
	}
	c.b = c.b[4*n:]
	return v
}

func (c *cursor) i32s() []int32 {
	n := int(c.u32())
	if c.err != nil || n < 0 || len(c.b) < 4*n {
		c.fail()
		return nil
	}
	v := make([]int32, n)
	copyI32sLE(v, c.b)
	c.b = c.b[4*n:]
	return v
}

// appendU64sPadded writes a count-prefixed u64 section with zero padding
// so the words start 8-byte aligned. It relies on appendSegment starting
// at file offset 0, so len(b) is the absolute offset.
func appendU64sPadded(b []byte, v []uint64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
	for len(b)%8 != 0 {
		b = append(b, 0)
	}
	return appendU64Words(b, v)
}

func appendU64s(b []byte, v []uint64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	return b
}

func appendI32s(b []byte, v []int32) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return b
}
