package state

import (
	"testing"

	"github.com/tukwila/adp/internal/types"
)

// BenchmarkHashTableProbe tracks the probe hot path's time and
// allocations: the plain Keyed.Probe interface call vs the
// precomputed-hash fast path a pipelined join uses.
func BenchmarkHashTableProbe(b *testing.B) {
	h := allocTestTable(1 << 16)
	key := []types.Value{types.Int(123)}
	fn := func(types.Tuple) bool { return true }

	b.Run("probe", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Probe(key, fn)
		}
	})
	b.Run("probe-hashed", func(b *testing.B) {
		b.ReportAllocs()
		tup := types.Tuple(key)
		hash := tup.HashKey(types.Identity(1))
		for i := 0; i < b.N; i++ {
			h.ProbeHashed(hash, tup, fn)
		}
	})
}

// BenchmarkHashTableInsert tracks insert cost including grow()
// re-bucketing amortization.
func BenchmarkHashTableInsert(b *testing.B) {
	schema := types.NewSchema(
		types.Column{Name: "t.k", Kind: types.KindInt},
		types.Column{Name: "t.v", Kind: types.KindInt},
	)
	b.ReportAllocs()
	b.ResetTimer()
	h := NewHashTable(schema, []int{0})
	for i := 0; i < b.N; i++ {
		h.Insert(types.Tuple{types.Int(int64(i)), types.Int(int64(i))})
	}
}

// BenchmarkListInsertBatch tracks the capture hot path (leaf partitions
// and join-output tees): 256-tuple batches appended to one growing list.
// Segments are never reallocated, so the steady state allocates one
// segment per maxListSegment tuples and nothing per batch. The list is
// replaced every 64k tuples to keep the benchmark's memory bounded.
func BenchmarkListInsertBatch(b *testing.B) {
	batch := make([]types.Tuple, 256)
	for i := range batch {
		batch[i] = row(int64(i), "v")
	}
	l := NewList(sch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if l.Len() >= 1<<16 {
			l = NewList(sch)
		}
		l.InsertBatch(batch)
	}
}
