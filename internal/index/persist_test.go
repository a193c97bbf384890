package index

import (
	"slices"
	"testing"

	"dsh/internal/durable"
)

// walSeedRecords returns one well-formed WAL payload of each record type
// at repetition count L, assembled by the store's own journaling code: a
// sealed store builds each record in its scratch buffer and writes it
// nowhere.
func walSeedRecords(L int) [][]byte {
	st := &store[[]float64]{codec: durable.Float64Codec{}}
	st.sealed.Store(true)
	dx := &shard[[]float64]{points: make([][]float64, 5)}
	keys := make([]uint64, L)
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	point := []float64{0.5, -0.25, 1e-300, 3}
	var recs [][]byte
	record := func(log func()) {
		log()
		recs = append(recs, slices.Clone(st.buf))
	}
	record(func() { st.logInsert(dx, point, keys) })
	record(func() { st.logInsertKeyed(dx, 1<<63|7, point, keys) })
	record(func() { st.logDelete(3) })
	record(func() { st.logDeleteKeyed(42) })
	record(func() { st.logGCRemap(4, -2, []int32{0, 2}) })
	return recs
}

// FuzzDecodeWALOp throws arbitrary bytes at the WAL record decoder with
// the float64 point codec and a repetition count L in 1..32 drawn from
// the input. A payload either decodes to an op or fails with an error,
// never a panic, and an accepted op holds no more than its payload
// accounts for: exactly L keys on an insert record, at most one dropped
// id per four payload bytes on a GC-remap record.
func FuzzDecodeWALOp(f *testing.F) {
	const seedL = 4
	for _, rec := range walSeedRecords(seedL) {
		for _, n := range []int{len(rec), len(rec) - 1, len(rec) / 2, 1, 0} {
			f.Add(byte(seedL-1), rec[:n])
		}
	}
	codec := durable.Float64Codec{}
	f.Fuzz(func(t *testing.T, l byte, payload []byte) {
		L := 1 + int(l)%32
		op, err := decodeOp(payload, L, codec)
		if err != nil {
			return
		}
		switch op.typ {
		case recInsert, recInsertKeyed:
			if len(op.keys) != L {
				t.Fatalf("insert record %x at L=%d decoded %d keys", payload, L, len(op.keys))
			}
			if 8*len(op.point) > len(payload) {
				t.Fatalf("insert record of %d bytes decoded a %d-float point", len(payload), len(op.point))
			}
		case recGCRemap:
			if 4*len(op.dropped) > len(payload) {
				t.Fatalf("GC-remap record of %d bytes decoded %d dropped ids", len(payload), len(op.dropped))
			}
		}
	})
}

// TestWALSeedRecordsDecode checks the fuzz seeds are well formed: each
// decodes to the op that was journaled.
func TestWALSeedRecordsDecode(t *testing.T) {
	const L = 4
	recs := walSeedRecords(L)
	want := []byte{recInsert, recInsertKeyed, recDelete, recDeleteKeyed, recGCRemap}
	for i, rec := range recs {
		op, err := decodeOp(rec, L, durable.Float64Codec{})
		if err != nil {
			t.Fatalf("seed record %d: %v", i, err)
		}
		if op.typ != want[i] {
			t.Fatalf("seed record %d decoded as type %d, want %d", i, op.typ, want[i])
		}
	}
	op, _ := decodeOp(recs[4], L, durable.Float64Codec{})
	if op.snapBound != 4 || op.delta != -2 || !slices.Equal(op.dropped, []int32{0, 2}) {
		t.Fatalf("GC-remap seed decoded as %+v", op)
	}
	op, _ = decodeOp(recs[1], L, durable.Float64Codec{})
	if op.key != 1<<63|7 || op.id != 5 || len(op.point) != 4 || len(op.keys) != L {
		t.Fatalf("keyed insert seed decoded as %+v", op)
	}
}
