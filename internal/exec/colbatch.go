package exec

import (
	"github.com/tukwila/adp/internal/types"
)

// ColRows materializes columnar batches — the signed delta frames of
// standing-query maintenance — into retention-safe row tuples for
// consumers that keep rows (join state, stitch-up buffers) or whose
// downstream only takes rows. The whole batch's value storage is carved
// in one arena allocation and the tuples are capacity-capped sub-slices
// of it, so the steady-state cost is one slab amortization instead of a
// per-row arena bump. The returned slice is reused across calls (batch
// contract); the tuples themselves are arena-backed and remain valid
// forever, so consumers may buffer or retain them.
type ColRows struct {
	arena valueArena
	rows  []types.Tuple
}

// Rows converts b, reusing internal storage across calls.
func (c *ColRows) Rows(b *types.ColBatch) []types.Tuple {
	w := b.Width()
	n := b.Len()
	rows := c.rows[:0]
	flat := c.arena.alloc(n * w)
	for i := 0; i < n; i++ {
		t := flat[i*w : (i+1)*w : (i+1)*w]
		b.ReadRow(t, i)
		rows = append(rows, t)
	}
	c.rows = rows
	return rows
}
