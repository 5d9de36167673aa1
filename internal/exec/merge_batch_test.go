package exec

import (
	"testing"

	"github.com/tukwila/adp/internal/types"
)

// sortedPair builds two key-ascending inputs: a unique-key side and a
// fanout side (several rows per key), the shape the complementary pair's
// router feeds the merge join.
func sortedPair(nKeys, fanout int) (ls, rs []types.Tuple) {
	for k := 0; k < nKeys; k++ {
		rs = append(rs, sRow(int64(k), int64(k)))
		for f := 0; f < fanout; f++ {
			ls = append(ls, rRow(int64(k), int64(f)))
		}
	}
	return
}

// feedMergeJoin pushes ls/rs in alternating chunks of chunkSize per side,
// then finishes both inputs.
func feedMergeJoin(t *testing.T, m *MergeJoin, ls, rs []types.Tuple, chunkSize int) {
	t.Helper()
	deliver := func(pushBatch func([]types.Tuple) error, chunk []types.Tuple) {
		if err := pushBatch(chunk); err != nil {
			t.Fatal(err)
		}
	}
	i, k := 0, 0
	for i < len(ls) || k < len(rs) {
		if i < len(ls) {
			end := min(i+chunkSize, len(ls))
			deliver(m.PushLeftBatch, ls[i:end])
			i = end
		}
		if k < len(rs) {
			end := min(k+chunkSize, len(rs))
			deliver(m.PushRightBatch, rs[k:end])
			k = end
		}
	}
	m.FinishLeft()
	m.FinishRight()
}

// TestMergeJoinBatchOutOfOrder verifies per-tuple rejection on routing
// bugs: within a batch the offending tuple is rejected individually (the
// first error is returned) and the rest of the batch still flows, so the
// outputs, counters, and clock match pushing one-row batches exactly.
func TestMergeJoinBatchOutOfOrder(t *testing.T) {
	ls := []types.Tuple{rRow(5, 0), rRow(3, 0), rRow(7, 0)} // 3 is out of order
	rs := []types.Tuple{sRow(5, 0), sRow(7, 0)}

	ctx1, out1 := NewContext(), &collectSink{}
	m1 := NewMergeJoin(ctx1, rSchema, sSchema, []int{0}, []int{0}, out1)
	rowErrs := 0
	for _, tp := range ls {
		if err := m1.PushLeftBatch(one(tp)); err != nil {
			rowErrs++
		}
	}
	for _, tp := range rs {
		if err := m1.PushRightBatch(one(tp)); err != nil {
			t.Fatal(err)
		}
	}
	m1.FinishLeft()
	m1.FinishRight()

	ctx2, out2 := NewContext(), &collectSink{}
	m2 := NewMergeJoin(ctx2, rSchema, sSchema, []int{0}, []int{0}, out2)
	if err := m2.PushLeftBatch(ls); err == nil {
		t.Fatal("out-of-order batch push did not error")
	}
	if err := m2.PushRightBatch(rs); err != nil {
		t.Fatal(err)
	}
	m2.FinishLeft()
	m2.FinishRight()

	if rowErrs != 1 {
		t.Fatalf("one-row batches rejected %d tuples, want 1", rowErrs)
	}
	if len(out1.rows) != 2 || len(out2.rows) != len(out1.rows) {
		t.Fatalf("outputs: one-row batches %d, batch %d, want 2 each", len(out1.rows), len(out2.rows))
	}
	for i := range out1.rows {
		if out1.rows[i].String() != out2.rows[i].String() {
			t.Fatalf("output %d differs: %v vs %v", i, out1.rows[i], out2.rows[i])
		}
	}
	if c1, c2 := m1.Counters(), m2.Counters(); *c1 != *c2 {
		t.Fatalf("counters differ: %+v vs %+v", c1, c2)
	}
	if ctx1.Clock.CPU != ctx2.Clock.CPU {
		t.Fatalf("clocks differ: %v vs %v", ctx1.Clock.CPU, ctx2.Clock.CPU)
	}
}

// TestMergeJoinSinks wires batches through LeftSink/RightSink, the path
// plan wiring uses.
func TestMergeJoinSinks(t *testing.T) {
	ls, rs := sortedPair(50, 2)
	out := &collectSink{}
	m := NewMergeJoin(NewContext(), rSchema, sSchema, []int{0}, []int{0}, out)
	m.LeftSink().PushBatch(ls)
	m.RightSink().PushBatch(rs)
	m.FinishLeft()
	m.FinishRight()
	if len(out.rows) != len(ls) {
		t.Fatalf("got %d outputs, want %d", len(out.rows), len(ls))
	}
}

// TestMergeJoinSinkPanicsOnDisorder: the sink adapters have no error
// channel, so a contract violation must fail loudly instead of silently
// dropping rows.
func TestMergeJoinSinkPanicsOnDisorder(t *testing.T) {
	m := NewMergeJoin(NewContext(), rSchema, sSchema, []int{0}, []int{0}, Discard)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order push through the sink did not panic")
		}
	}()
	m.LeftSink().PushBatch([]types.Tuple{rRow(5, 0), rRow(3, 0)})
}
