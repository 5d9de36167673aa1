package exec

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// Operator pins. Each file under testdata/pins was captured from the
// tuple-at-a-time entry points before they were removed, so the batch
// entries are held to exactly what per-tuple stepping produced: rows in
// delivery order (as a count and a SHA-256 of their rendering), operator
// counters, and the virtual and CPU clocks as %.17g.

func g17(f float64) string { return strconv.FormatFloat(f, 'g', 17, 64) }

// pinRows renders a row sequence as its length and a digest of the
// ordered rendering.
func pinRows(rows []types.Tuple) string {
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintf(h, "%v\n", r)
	}
	return fmt.Sprintf("rows %d sha256=%x", len(rows), h.Sum(nil))
}

// pinCase renders one pinned case; counters are "label value" lines.
func pinCase(name string, clk *Clock, rows []types.Tuple, counters ...string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "case %s\n", name)
	for _, c := range counters {
		fmt.Fprintf(&sb, "counters %s\n", c)
	}
	fmt.Fprintf(&sb, "clocks now=%s cpu=%s\n", g17(clk.Now), g17(clk.CPU))
	fmt.Fprintf(&sb, "%s\n", pinRows(rows))
	return sb.String()
}

// checkPin compares a rendering with testdata/pins/file line by line.
// Clock lines must match exactly when tol is 0, else each reading must
// agree to relative tol (charges summed in a different order).
func checkPin(t *testing.T, file, got string, tol float64) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "pins", file))
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(raw), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d lines, pin %d", file, len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] == wl[i] {
			continue
		}
		if tol > 0 && strings.HasPrefix(gl[i], "clocks ") && clocksClose(t, gl[i], wl[i], tol) {
			continue
		}
		t.Fatalf("%s diverges from the pin at line %d:\n got %s\nwant %s", file, i+1, gl[i], wl[i])
	}
}

func clocksClose(t *testing.T, got, want string, tol float64) bool {
	t.Helper()
	var gn, gc, wn, wc float64
	if _, err := fmt.Sscanf(got, "clocks now=%g cpu=%g", &gn, &gc); err != nil {
		t.Fatalf("bad clocks line %q: %v", got, err)
	}
	if _, err := fmt.Sscanf(want, "clocks now=%g cpu=%g", &wn, &wc); err != nil {
		t.Fatalf("bad clocks line %q: %v", want, err)
	}
	close := func(a, b float64) bool { return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b)) }
	return close(gn, wn) && close(gc, wc)
}

func counterLine(label string, c any) string { return fmt.Sprintf("%s %+v", label, c) }

// TestJoinStylesPinned feeds every join style alternating 64-tuple
// batches per side and holds outputs, counters, and both clocks exactly
// to the tuple-at-a-time pins.
func TestJoinStylesPinned(t *testing.T) {
	ls := randTuples(2000, 300, 1, rRow)
	rs := randTuples(2000, 300, 2, sRow)
	var sb strings.Builder
	for _, style := range []JoinStyle{Pipelined, BuildThenProbe, NestedLoops} {
		ctx := NewContext()
		out := &collectSink{}
		j := NewHashJoin(ctx, style, rSchema, sSchema, []int{0}, []int{0}, out)
		feedJoin(j, ls, rs, 64)
		sb.WriteString(pinCase(style.String(), ctx.Clock, out.rows, counterLine("join", *j.Counters())))
	}
	checkPin(t, "join_styles.pin", sb.String(), 0)
}

// TestMergeJoinPinned feeds the merge join in chunks of several sizes and
// holds outputs, counters, local-table sizes, and clocks exactly to the
// tuple-at-a-time pins; batched output must also ascend on the key.
func TestMergeJoinPinned(t *testing.T) {
	ls, rs := sortedPair(400, 3)
	var sb strings.Builder
	for _, chunk := range []int{1, 7, 64, 1000} {
		ctx := NewContext()
		out := &collectSink{}
		m := NewMergeJoin(ctx, rSchema, sSchema, []int{0}, []int{0}, out)
		feedMergeJoin(t, m, ls, rs, chunk)
		for i := 1; i < len(out.rows); i++ {
			if out.rows[i][0].I < out.rows[i-1][0].I {
				t.Fatalf("chunk %d: output not key-ordered at %d: %v after %v", chunk, i, out.rows[i], out.rows[i-1])
			}
		}
		l, r := m.Tables()
		sb.WriteString(pinCase(fmt.Sprintf("chunk=%d", chunk), ctx.Clock, out.rows,
			counterLine("merge", *m.Counters()),
			fmt.Sprintf("tables left=%d right=%d", l.Len(), r.Len())))
	}
	checkPin(t, "merge_join.pin", sb.String(), 0)
}

// segmentPipeline builds a Filter → Project → HashJoin → AggTable segment
// (the shape of a lowered phase plan).
func segmentPipeline(t *testing.T) (*Filter, *Project, *HashJoin, *AggTable, *Context) {
	t.Helper()
	// Project r(k,a) -> (a,k) so the join keys on column 1 of the
	// projected layout.
	projSchema := types.NewSchema(
		types.Column{Name: "r.a", Kind: types.KindInt},
		types.Column{Name: "r.k", Kind: types.KindInt},
	)
	full := projSchema.Concat(sSchema)
	aggs := []algebra.AggSpec{{Kind: algebra.AggCount, As: "n"}}
	ctx := NewContext()
	agg, err := NewAggTable(ctx, full, []string{"r.k"}, aggs)
	if err != nil {
		t.Fatal(err)
	}
	j := NewHashJoin(ctx, Pipelined, projSchema, sSchema, []int{1}, []int{0}, agg)
	ad, err := types.NewAdapter(rSchema, projSchema)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProject(ctx, ad, j.LeftSink())
	f := NewFilter(ctx, func(tp types.Tuple) bool { return tp[1].I%3 != 0 }, p)
	return f, p, j, agg, ctx
}

// TestPipelineSegmentPinned pushes 128-tuple batches through a pipeline
// segment and holds the final aggregate and every operator's counters
// exactly, and the clocks to 1e-9, to the tuple-at-a-time pin.
func TestPipelineSegmentPinned(t *testing.T) {
	ls := randTuples(3000, 200, 3, rRow)
	rs := randTuples(3000, 200, 4, sRow)
	f, p, j, a, ctx := segmentPipeline(t)
	for i := 0; i < len(ls); i += 128 {
		end := min(i+128, len(ls))
		f.PushBatch(ls[i:end])
		j.PushRightBatch(rs[i:end])
	}
	rows := a.EmitFinal()
	checkPin(t, "pipeline_segment.pin", pinCase("segment", ctx.Clock, rows,
		counterLine("filter", *f.Counters()), counterLine("project", *p.Counters()),
		counterLine("join", *j.Counters()), counterLine("agg", *a.Counters())), 1e-9)
}

// TestDriverDeliveryPinned runs the driver's batched delivery over two
// bursty, interleaved arrival schedules into a pipelined join and holds
// outputs, delivery counts, and join counters exactly, and the clocks to
// 1e-9, to the per-tuple pin.
func TestDriverDeliveryPinned(t *testing.T) {
	ls := randTuples(1500, 250, 5, rRow)
	rs := randTuples(1500, 250, 6, sRow)
	lRel := source.NewRelation("r", rSchema, ls)
	rRel := source.NewRelation("s", sSchema, rs)
	ctx := NewContext()
	out := &collectSink{}
	j := NewHashJoin(ctx, Pipelined, rSchema, sSchema, []int{0}, []int{0}, out)
	d := NewDriver(ctx,
		&Leaf{
			Provider:  source.NewProvider(lRel, source.NewBursty(len(ls), 12000, 80, 0.01, 3)),
			Pred:      func(tp types.Tuple) bool { return tp[1].I%7 != 0 },
			PushBatch: j.PushLeftBatch,
		},
		&Leaf{
			Provider:  source.NewProvider(rRel, source.NewBursty(len(rs), 9000, 120, 0.02, 4)),
			PushBatch: j.PushRightBatch,
		})
	d.Run(0, nil)
	j.FinishLeft()
	j.FinishRight()
	checkPin(t, "driver_delivery.pin", pinCase("driver", ctx.Clock, out.rows,
		fmt.Sprintf("delivered %d", d.Delivered), counterLine("join", *j.Counters())), 1e-9)
}
