package exec

import (
	"github.com/tukwila/adp/internal/types"
)

// discardSink drops batches (benchmarks disable query output to eliminate
// client feedback, §3.5).
type discardSink struct{}

func (discardSink) PushBatch([]types.Tuple) {}

// Discard is a Sink that drops tuples.
var Discard Sink = discardSink{}

// arenaSlab is the value-arena slab size (values, not tuples).
const arenaSlab = 4096

// valueArena carves tuple storage out of large slabs so that operators
// whose outputs are retained downstream (join results, projections) pay
// one allocation per slab instead of one per tuple. Slabs are never
// reused, so handed-out tuples remain valid forever; the returned slices
// are capacity-capped so appending to one cannot clobber a neighbour.
type valueArena struct {
	slab []types.Value
}

// alloc returns a zeroed tuple of n values carved from the current slab.
func (a *valueArena) alloc(n int) types.Tuple {
	if cap(a.slab)-len(a.slab) < n {
		sz := arenaSlab
		if n > sz {
			sz = n
		}
		a.slab = make([]types.Value, 0, sz)
	}
	off := len(a.slab)
	a.slab = a.slab[:off+n]
	return types.Tuple(a.slab[off : off+n : off+n])
}

// concat builds lt ++ rt in arena storage (the join-emit fast path).
func (a *valueArena) concat(lt, rt types.Tuple) types.Tuple {
	out := a.alloc(len(lt) + len(rt))
	copy(out, lt)
	copy(out[len(lt):], rt)
	return out
}

// emitFlushLen caps how many buffered outputs a BatchEmitter accumulates
// before delivering them downstream mid-batch, bounding memory on highly
// multiplicative joins without changing delivery order.
const emitFlushLen = 1024

// BatchEmitter is the shared emit machinery of the join-shaped operators
// (HashJoin, MergeJoin, the complementary pair's mini stitch-up):
// concatenated outputs are carved from a slab arena and buffered until
// Flush, so a whole input batch's results reach the downstream sink in one
// PushBatch. Delivery order is always the emit order.
type BatchEmitter struct {
	buf   []types.Tuple
	arena valueArena
}

// EmitConcat buffers lt ++ rt.
func (e *BatchEmitter) EmitConcat(out Sink, lt, rt types.Tuple) {
	e.buf = append(e.buf, e.arena.concat(lt, rt))
	if len(e.buf) >= emitFlushLen {
		e.deliver(out)
	}
}

// Flush delivers any buffered outputs downstream.
func (e *BatchEmitter) Flush(out Sink) {
	if len(e.buf) > 0 {
		e.deliver(out)
	}
}

// deliver hands the buffer downstream and clears it before reuse so it
// does not pin arena-backed results downstream has already dropped.
func (e *BatchEmitter) deliver(out Sink) {
	out.PushBatch(e.buf)
	clear(e.buf)
	e.buf = e.buf[:0]
}
