package core

import (
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/state"
	"github.com/tukwila/adp/internal/types"
)

// aggSink adapts a phase tree's root layout into a shared AggTable —
// AbsorbRaw for full-layout tuples, AbsorbPartial for pre-aggregated
// partials. Absorption does not retain the pushed tuple, so adaptation
// reuses one scratch tuple (types.Adapter.AdaptInto): the sink performs
// zero steady-state allocations, tuple-at-a-time or batched.
type aggSink struct {
	agg     *exec.AggTable
	ad      *types.Adapter
	partial bool
	scratch types.Tuple
}

// Push implements exec.Sink.
func (s *aggSink) Push(t types.Tuple) {
	s.scratch = s.ad.AdaptInto(s.scratch, t)
	if s.partial {
		s.agg.AbsorbPartial(s.scratch)
	} else {
		s.agg.AbsorbRaw(s.scratch)
	}
}

// PushBatch implements exec.BatchSink.
func (s *aggSink) PushBatch(ts []types.Tuple) {
	for _, t := range ts {
		s.Push(t)
	}
}

// forwardSink forwards tuples and batches to a late-bound downstream sink
// (the stitch-up output is constructed before its schema-dependent
// destination exists). Batches pass through PushAll so the downstream
// sink's vectorized path is preserved.
type forwardSink struct {
	out exec.Sink
}

// Push implements exec.Sink.
func (f *forwardSink) Push(t types.Tuple) { f.out.Push(t) }

// PushBatch implements exec.BatchSink.
func (f *forwardSink) PushBatch(ts []types.Tuple) { exec.PushAll(f.out, ts) }

// listSink materializes tuples into a state structure, charging one Move
// per tuple (a materialization write).
type listSink struct {
	ctx *exec.Context
	dst *state.List
}

// Push implements exec.Sink.
func (s *listSink) Push(t types.Tuple) {
	s.ctx.Clock.Charge(s.ctx.Cost.Move)
	s.dst.Insert(t)
}

// PushBatch implements exec.BatchSink: one bulk append after the
// per-tuple Move charges.
func (s *listSink) PushBatch(ts []types.Tuple) {
	for range ts {
		s.ctx.Clock.Charge(s.ctx.Cost.Move)
	}
	s.dst.InsertBatch(ts)
}

// collectSink adapts and appends result tuples to a slice (the SPJ result
// collector). Collected tuples are retained, so each is a fresh
// adaptation; batching still saves the per-tuple downstream call fan-out.
type collectSink struct {
	ctx  *exec.Context
	ad   *types.Adapter
	dst  *[]types.Tuple
	cost bool // charge Move per tuple (phase output does; stitch-up already charged)
}

// Push implements exec.Sink.
func (s *collectSink) Push(t types.Tuple) {
	if s.cost {
		s.ctx.Clock.Charge(s.ctx.Cost.Move)
	}
	*s.dst = append(*s.dst, s.ad.Adapt(t))
}

// PushBatch implements exec.BatchSink.
func (s *collectSink) PushBatch(ts []types.Tuple) {
	for _, t := range ts {
		s.Push(t)
	}
}
