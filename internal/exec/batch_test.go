package exec

import (
	"testing"

	"github.com/tukwila/adp/internal/types"
)

// feedJoin pushes ls/rs in alternating chunks of chunkSize per side, then
// finishes both inputs.
func feedJoin(j *HashJoin, ls, rs []types.Tuple, chunkSize int) {
	i, k := 0, 0
	for i < len(ls) || k < len(rs) {
		if i < len(ls) {
			end := min(i+chunkSize, len(ls))
			j.PushLeftBatch(ls[i:end])
			i = end
		}
		if k < len(rs) {
			end := min(k+chunkSize, len(rs))
			j.PushRightBatch(rs[k:end])
			k = end
		}
	}
	j.FinishLeft()
	j.FinishRight()
}

// TestQueueDrainCompacts covers the Drain memory fix: partial drains
// preserve order and compact the backing buffer rather than pinning the
// drained prefix.
func TestQueueDrainCompacts(t *testing.T) {
	sink := &collectSink{}
	q := NewQueue(sink)
	for i := int64(0); i < 10; i++ {
		q.PushBatch(one(rRow(i, i)))
	}
	if n := q.Drain(3); n != 3 || q.Len() != 7 {
		t.Fatalf("Drain(3) = %d, len %d", n, q.Len())
	}
	q.PushBatch([]types.Tuple{rRow(10, 10), rRow(11, 11)})
	if n := q.Drain(0); n != 9 || q.Len() != 0 {
		t.Fatalf("Drain(0) = %d, len %d", n, q.Len())
	}
	if len(sink.rows) != 12 {
		t.Fatalf("delivered %d tuples, want 12", len(sink.rows))
	}
	for i, row := range sink.rows {
		if row[0].I != int64(i) {
			t.Fatalf("row %d out of order: %v", i, row)
		}
	}
	if n := q.Drain(5); n != 0 {
		t.Fatalf("Drain on empty = %d", n)
	}
}
