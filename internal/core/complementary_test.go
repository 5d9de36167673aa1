package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

var (
	lSchema = types.NewSchema(
		types.Column{Name: "l.k", Kind: types.KindInt},
		types.Column{Name: "l.v", Kind: types.KindInt},
	)
	oSchema = types.NewSchema(
		types.Column{Name: "o.k", Kind: types.KindInt},
		types.Column{Name: "o.v", Kind: types.KindInt},
	)
)

// mkSortedFK builds a key-side relation (unique sorted keys 0..nKeys-1)
// and an FK side with fanout lines per key, sorted by key.
func mkSortedFK(nKeys, fanout int) (keys, fks []types.Tuple) {
	for k := 0; k < nKeys; k++ {
		keys = append(keys, types.Tuple{types.Int(int64(k)), types.Int(int64(k))})
		for l := 0; l < fanout; l++ {
			fks = append(fks, types.Tuple{types.Int(int64(k)), types.Int(int64(l))})
		}
	}
	return
}

func reorder(rows []types.Tuple, frac float64, seed int64) []types.Tuple {
	out := append([]types.Tuple(nil), rows...)
	rng := rand.New(rand.NewSource(seed))
	swaps := int(frac * float64(len(out)) / 2)
	for i := 0; i < swaps; i++ {
		a, b := rng.Intn(len(out)), rng.Intn(len(out))
		out[a], out[b] = out[b], out[a]
	}
	return out
}

// runPair feeds both inputs interleaved into a complementary join and
// returns the number of output tuples plus the stats.
func runPair(t *testing.T, ls, rs []types.Tuple, pqCap int) (int, CompJoinStats) {
	t.Helper()
	ctx := exec.NewContext()
	n := 0
	cj := NewComplementaryJoin(ctx, lSchema, oSchema, []int{0}, []int{0}, pqCap,
		exec.SinkFunc(func(ts []types.Tuple) { n += len(ts) }))
	i, k := 0, 0
	for i < len(ls) || k < len(rs) {
		if i < len(ls) {
			cj.PushLeftBatch(one(ls[i]))
			i++
		}
		if k < len(rs) {
			cj.PushRightBatch(one(rs[k]))
			k++
		}
	}
	cj.Finish()
	cj.Finish() // idempotent
	return n, cj.Stats
}

func refJoinCount(ls, rs []types.Tuple) int {
	byKey := map[int64]int{}
	for _, r := range rs {
		byKey[r[0].I]++
	}
	n := 0
	for _, l := range ls {
		n += byKey[l[0].I]
	}
	return n
}

func TestComplementaryJoinSortedAllMerge(t *testing.T) {
	keys, fks := mkSortedFK(300, 4)
	want := refJoinCount(fks, keys)
	got, st := runPair(t, fks, keys, 0)
	if got != want {
		t.Fatalf("output = %d, want %d", got, want)
	}
	if st.HashRoutedLeft+st.HashRoutedRight != 0 {
		t.Errorf("sorted input should route everything to merge: %+v", st)
	}
	if st.MergeOut != int64(want) || st.StitchOut != 0 || st.HashOut != 0 {
		t.Errorf("sorted input join distribution wrong: %+v", st)
	}
}

func TestComplementaryJoinEquivalenceUnderReordering(t *testing.T) {
	keys, fks := mkSortedFK(250, 3)
	want := refJoinCount(fks, keys)
	for _, frac := range []float64{0, 0.01, 0.1, 0.5, 1.0} {
		for _, pq := range []int{0, 64, DefaultPQCap} {
			ls := reorder(fks, frac, 42)
			rs := reorder(keys, frac, 43)
			got, st := runPair(t, ls, rs, pq)
			if got != want {
				t.Fatalf("frac=%g pq=%d: output = %d, want %d (stats %+v)", frac, pq, got, want, st)
			}
			total := st.MergeOut + st.HashOut + st.StitchOut
			if total != int64(want) {
				t.Fatalf("frac=%g pq=%d: component outputs %d != total %d", frac, pq, total, want)
			}
		}
	}
}

func TestPriorityQueueKeepsMergeUseful(t *testing.T) {
	// At 1% reordering, the naive router collapses to hash after the
	// first out-of-order tuple poisons the watermark; the priority queue
	// should keep the merge join dominant (§5, Table 3).
	keys, fks := mkSortedFK(2000, 3)
	ls := reorder(fks, 0.01, 7)
	rs := reorder(keys, 0.01, 8)

	_, naive := runPair(t, ls, rs, 0)
	_, pq := runPair(t, append([]types.Tuple(nil), ls...), append([]types.Tuple(nil), rs...), DefaultPQCap)

	naiveMergeFrac := float64(naive.MergeRoutedLeft+naive.MergeRoutedRight) /
		float64(naive.MergeRoutedLeft+naive.MergeRoutedRight+naive.HashRoutedLeft+naive.HashRoutedRight)
	pqMergeFrac := float64(pq.MergeRoutedLeft+pq.MergeRoutedRight) /
		float64(pq.MergeRoutedLeft+pq.MergeRoutedRight+pq.HashRoutedLeft+pq.HashRoutedRight)
	if pqMergeFrac <= naiveMergeFrac {
		t.Errorf("pq merge fraction %.3f should exceed naive %.3f", pqMergeFrac, naiveMergeFrac)
	}
	if pqMergeFrac < 0.9 {
		t.Errorf("pq should keep >90%% of 1%%-reordered data in merge, got %.3f", pqMergeFrac)
	}
}

func TestComplementaryFasterThanHashOnSorted(t *testing.T) {
	// Virtual-time comparison on fully sorted data: the pair should beat
	// a plain pipelined hash join (merge comparisons < hash operations).
	keys, fks := mkSortedFK(3000, 3)

	hashCtx := exec.NewContext()
	hj := exec.NewHashJoin(hashCtx, exec.Pipelined, lSchema, oSchema, []int{0}, []int{0}, exec.Discard)
	i, k := 0, 0
	for i < len(fks) || k < len(keys) {
		if i < len(fks) {
			hj.PushLeftBatch(one(fks[i]))
			i++
		}
		if k < len(keys) {
			hj.PushRightBatch(one(keys[k]))
			k++
		}
	}
	hj.FinishLeft()
	hj.FinishRight()

	pairCtx := exec.NewContext()
	cj := NewComplementaryJoin(pairCtx, lSchema, oSchema, []int{0}, []int{0}, 0, exec.Discard)
	i, k = 0, 0
	for i < len(fks) || k < len(keys) {
		if i < len(fks) {
			cj.PushLeftBatch(one(fks[i]))
			i++
		}
		if k < len(keys) {
			cj.PushRightBatch(one(keys[k]))
			k++
		}
	}
	cj.Finish()

	if pairCtx.Clock.CPU >= hashCtx.Clock.CPU {
		t.Errorf("complementary pair CPU %.6f should beat hash join %.6f on sorted data",
			pairCtx.Clock.CPU, hashCtx.Clock.CPU)
	}
}

func TestComplementaryViaProviders(t *testing.T) {
	// Drive the pair through source providers with bursty schedules, as
	// the Figure 5 experiment does.
	keys, fks := mkSortedFK(500, 2)
	lRel := source.NewRelation("l", lSchema, fks)
	oRel := source.NewRelation("o", oSchema, keys)
	lp := source.NewProvider(lRel, source.NewBursty(len(fks), 10000, 100, 0.01, 1))
	op := source.NewProvider(oRel, source.NewBursty(len(keys), 10000, 100, 0.01, 2))

	ctx := exec.NewContext()
	n := 0
	cj := NewComplementaryJoin(ctx, lSchema, oSchema, []int{0}, []int{0}, DefaultPQCap,
		exec.SinkFunc(func(ts []types.Tuple) { n += len(ts) }))
	d := exec.NewDriver(ctx,
		&exec.Leaf{Provider: lp, PushBatch: cj.PushLeftBatch},
		&exec.Leaf{Provider: op, PushBatch: cj.PushRightBatch},
	)
	d.Run(0, nil)
	cj.Finish()
	if n != refJoinCount(fks, keys) {
		t.Fatalf("output = %d, want %d", n, refJoinCount(fks, keys))
	}
	if ctx.Clock.Now <= 0 {
		t.Error("no virtual time elapsed")
	}
}

// rowSink collects tuples in arrival order (tuples may be retained, the
// batch slice is not).
type rowSink struct {
	rows []types.Tuple
}

func (s *rowSink) PushBatch(ts []types.Tuple) { s.rows = append(s.rows, ts...) }

// one wraps a tuple as a one-row batch.
func one(t types.Tuple) []types.Tuple { return []types.Tuple{t} }

// feedPair delivers both inputs in alternating per-side chunks, then
// finishes the pair.
func feedPair(cj *ComplementaryJoin, ls, rs []types.Tuple, chunk int) {
	i, k := 0, 0
	for i < len(ls) || k < len(rs) {
		if i < len(ls) {
			end := min(i+chunk, len(ls))
			cj.PushLeftBatch(ls[i:end])
			i = end
		}
		if k < len(rs) {
			end := min(k+chunk, len(rs))
			cj.PushRightBatch(rs[k:end])
			k = end
		}
	}
	cj.Finish()
}

// compPinCase renders one complementary-join case: routing and output
// statistics, both clocks as %.17g, and the output rows in delivery
// order as a count and a SHA-256 of their rendering.
func compPinCase(name string, clk *exec.Clock, rows []types.Tuple, st CompJoinStats) string {
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintf(h, "%v\n", r)
	}
	return fmt.Sprintf("case %s\nstats %+v\nclocks now=%s cpu=%s\nrows %d sha256=%x\n",
		name, st, g17(clk.Now), g17(clk.CPU), len(rows), h.Sum(nil))
}

// TestComplementaryPinned feeds the batched router across reorder
// fractions, both router configurations, and several chunk sizes, and
// holds it to the pin captured from tuple-at-a-time routing before that
// path was removed: identical output sequence (ordered delivery) and
// routing statistics, and clocks equal up to float summation order.
func TestComplementaryPinned(t *testing.T) {
	keys, fks := mkSortedFK(300, 3)
	var sb strings.Builder
	for _, frac := range []float64{0, 0.02, 0.3, 1.0} {
		for _, pq := range []int{0, 64, DefaultPQCap} {
			for _, chunk := range []int{1, 17, 64} {
				ctx := exec.NewContext()
				out := &rowSink{}
				cj := NewComplementaryJoin(ctx, lSchema, oSchema, []int{0}, []int{0}, pq, out)
				feedPair(cj, reorder(fks, frac, 21), reorder(keys, frac, 22), chunk)
				sb.WriteString(compPinCase(fmt.Sprintf("frac=%g pq=%d chunk=%d", frac, pq, chunk), ctx.Clock, out.rows, cj.Stats))
			}
		}
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "pins", "complementary.pin"))
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(sb.String(), "\n"), strings.Split(string(raw), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d lines, pin %d", len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] == wl[i] {
			continue
		}
		var gn, gc, wn, wc float64
		_, gerr := fmt.Sscanf(gl[i], "clocks now=%g cpu=%g", &gn, &gc)
		_, werr := fmt.Sscanf(wl[i], "clocks now=%g cpu=%g", &wn, &wc)
		if gerr == nil && werr == nil && relClose(gn, wn, 1e-9) && relClose(gc, wc, 1e-9) {
			continue
		}
		t.Fatalf("diverges from the pin at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
	}
}

// TestComplementaryBatchSortedOrderedDelivery checks that on fully sorted
// input the batched pair delivers merge output in ascending key order —
// the ordered-delivery property downstream merge consumers rely on.
func TestComplementaryBatchSortedOrderedDelivery(t *testing.T) {
	keys, fks := mkSortedFK(500, 2)
	out := &rowSink{}
	cj := NewComplementaryJoin(exec.NewContext(), lSchema, oSchema, []int{0}, []int{0}, 0, out)
	feedPair(cj, fks, keys, 64)
	if cj.Stats.HashRoutedLeft+cj.Stats.HashRoutedRight != 0 {
		t.Fatalf("sorted input routed to hash: %+v", cj.Stats)
	}
	if len(out.rows) != refJoinCount(fks, keys) {
		t.Fatalf("output = %d, want %d", len(out.rows), refJoinCount(fks, keys))
	}
	for i := 1; i < len(out.rows); i++ {
		if out.rows[i][0].I < out.rows[i-1][0].I {
			t.Fatalf("output not key-ordered at %d: %v after %v", i, out.rows[i], out.rows[i-1])
		}
	}
}

func TestTupleHeapOrdering(t *testing.T) {
	h := newTupleHeap([]int{0}, 4)
	seq := []int64{5, 1, 9, 3, 7, 2}
	var evicted []int64
	for _, k := range seq {
		if ev, ok := h.offer(types.Tuple{types.Int(k)}); ok {
			evicted = append(evicted, ev[0].I)
		}
	}
	var drained []int64
	h.drain(func(t types.Tuple) { drained = append(drained, t[0].I) })
	if !sort.SliceIsSorted(drained, func(i, j int) bool { return drained[i] < drained[j] }) {
		t.Errorf("drain not sorted: %v", drained)
	}
	all := append(evicted, drained...)
	if len(all) != len(seq) {
		t.Errorf("lost tuples: %v", all)
	}
}
