package main

import (
	"context"
	"fmt"
	"time"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/datagen"
	"github.com/tukwila/adp/internal/engine"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
	"github.com/tukwila/adp/internal/workload"
)

// scaleFactor sizes every workload's TPC-H-style data: about 120k
// lineitem rows, large enough that one query costs 40–300 ms.
const scaleFactor = 0.02

// dataEnv is generated data registered with an engine. No cardinalities
// are advertised: the optimizer starts from defaults, as in the paper's
// data-integration setting.
type dataEnv struct {
	eng  *engine.Engine
	rels map[string]*source.Relation
}

func newDataEnv(seed int64, skewed bool) *dataEnv {
	d := datagen.Generate(datagen.Config{ScaleFactor: scaleFactor, Seed: seed, Skewed: skewed, Z: datagen.DefaultZ})
	env := &dataEnv{eng: engine.New(), rels: d.Relations()}
	for _, rel := range env.rels {
		env.eng.Register(rel)
	}
	return env
}

// reference runs q with the Static strategy at P=1 and returns its rows
// sorted, the answer every measured run is checked against.
func (e *dataEnv) reference(q *algebra.Query) ([]types.Tuple, *core.Report, error) {
	rep, err := e.eng.Execute(q, core.Options{Strategy: core.Static})
	if err != nil {
		return nil, nil, fmt.Errorf("reference %s: %w", q.Name, err)
	}
	return sortedRows(rep.Rows), rep, nil
}

// cell is one entry of the paper's query × strategy matrix.
type cell struct {
	q        *algebra.Query
	strategy core.Strategy
}

func (c cell) String() string { return c.q.Name + "/" + c.strategy.String() }

// paperMatrix is {Q3A, Q10, Q10A, Q5} × {static, corrective, planpart}.
func paperMatrix() []cell {
	var cells []cell
	for _, q := range workload.All() {
		for _, s := range []core.Strategy{core.Static, core.Corrective, core.PlanPartition} {
			cells = append(cells, cell{q, s})
		}
	}
	return cells
}

// runAdaptive is adaptive_batch: one client runs the paper matrix over
// skewed data through Engine.Stream at P=1, back to back, in whole
// passes. The traced run alternates untraced passes with passes through
// core.RunStream under the benchmark's hooks.
func runAdaptive(cfg config) (*outcome, error) {
	out := newOutcome()
	env, setup, err := setupMedian(func() (*dataEnv, error) { return newDataEnv(cfg.seed, true), nil }, func(*dataEnv) {})
	if err != nil {
		return nil, err
	}
	out.set("setup_s", setup)
	cells := paperMatrix()
	refs := map[string][]types.Tuple{}
	for _, q := range workload.All() {
		if refs[q.Name], _, err = env.reference(q); err != nil {
			return nil, err
		}
	}

	ctx := context.Background()
	tr := newTracer()
	var (
		lat, traced, first samples
		onClock            time.Duration
		passVirtual        []float64
		layers             layerAcc
		queries            int
	)
	minOps := needed(0.9)
	p := startProbe()
	deadline := time.Now().Add(cfg.seconds)
	for pass := 0; time.Now().Before(deadline) || len(lat) < minOps; pass++ {
		tracePass := cfg.trace && pass%2 == 1
		var virtual float64
		for _, c := range cells {
			queries++
			out.attempted++
			var (
				rep     *core.Report
				took    time.Duration
				firstAt time.Duration
				rows    int
			)
			if tracePass {
				var rt runTrace
				rep, rt, err = tracedRun(ctx, tr, int64(queries), env.rels, c.q, core.Options{Strategy: c.strategy}, nil, nil)
				took, rows = rt.wall, int(rt.rowsOut)
				if err == nil {
					layers.add(rt, rep)
				}
			} else {
				rep, took, firstAt, rows, err = streamQuery(ctx, env.eng, c)
			}
			if err == nil {
				err = sameAnswer(rep.Rows, refs[c.q.Name])
				if err == nil && rows != len(rep.Rows) {
					err = fmt.Errorf("cursor delivered %d rows, report holds %d", rows, len(rep.Rows))
				}
			}
			if tracePass {
				traced.addDur(took)
				if err != nil {
					out.fail("%v: %v", c, err)
				}
				continue
			}
			if err != nil {
				out.fail("%v: %v", c, err)
				lat.addFailed()
				continue
			}
			lat.addDur(took)
			first.addDur(firstAt)
			onClock += took
			virtual += rep.VirtualSeconds
		}
		if !tracePass {
			passVirtual = append(passVirtual, virtual)
		}
	}
	r := p.finish()
	out.latencies(lat, "latency_p50_ms", "latency_p90_ms")
	out.latencies(first, "first_row_p50_ms", "")
	out.set("ops_per_s", float64(len(lat))/onClock.Seconds())
	out.set("virtual_s", median(passVirtual))
	out.runtimeMetrics(r, queries)
	if cfg.trace {
		layers.report(out)
		out.set("trace.overhead_frac", median(traced)/median(lat)-1)
		if err := tr.write(tracePath(cfg)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// streamQuery runs one cell through Engine.Stream, draining the cursor;
// it returns the report, the time from the Stream call to the report,
// the time to the first row, and how many rows the cursor delivered.
func streamQuery(ctx context.Context, eng *engine.Engine, c cell) (*core.Report, time.Duration, time.Duration, int, error) {
	start := time.Now()
	st, err := eng.Stream(ctx, c.q, engine.WithStrategy(c.strategy), engine.WithPartitions(1))
	if err != nil {
		return nil, 0, 0, 0, err
	}
	defer st.Close()
	var firstAt time.Duration
	n := 0
	for {
		if _, ok := st.Next(); !ok {
			break
		}
		if n == 0 {
			firstAt = time.Since(start)
		}
		n++
	}
	rep, err := st.Report()
	return rep, time.Since(start), firstAt, n, err
}

// layerAcc sums the traced runs' per-layer readings.
type layerAcc struct {
	runs       int
	sourceRows int64
	sourceRead time.Duration
	optRuns    int
	opt        time.Duration
	polls      int
	switches   int
	phases     int
	phaseTime  time.Duration
	stitchRuns int
	stitch     time.Duration
	combos     int
	reused     int64
	discarded  int64
	self       time.Duration
	skews      []float64
	firstFrac  []float64
	deliver    time.Duration
	flushes    int
	rowsOut    int64
	wait       time.Duration
}

func (a *layerAcc) add(rt runTrace, rep *core.Report) {
	a.runs++
	a.sourceRows += rt.sourceRows
	a.sourceRead += rt.sourceRead
	if rt.optRan {
		a.optRuns++
		a.opt += rt.optInitial
	}
	a.polls += rt.polls
	a.switches += rt.switches
	for _, d := range rt.phases {
		a.phases++
		a.phaseTime += d
	}
	if rt.stitchup > 0 {
		a.stitchRuns++
		a.stitch += rt.stitchup
	}
	a.combos += rep.StitchCombos
	a.reused += rep.Reused
	a.discarded += rep.Discarded
	a.self += rt.self
	a.skews = append(a.skews, rt.partSkew...)
	if rt.firstRow > 0 && rt.wall > 0 {
		a.firstFrac = append(a.firstFrac, float64(rt.firstRow)/float64(rt.wall))
	}
	a.deliver += rt.deliver
	a.flushes += rt.flushes
	a.rowsOut += rt.rowsOut
	a.wait += rt.nextWait
}

// perRun divides by a count, reading 0 when nothing was counted.
func perRun(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

func (a *layerAcc) report(o *outcome) {
	o.set("source.rows_read", perRun(float64(a.sourceRows), a.runs))
	o.set("source.read_ms", perRun(ms(a.sourceRead), a.runs))
	o.set("opt.initial_ms", perRun(ms(a.opt), a.optRuns))
	o.set("core.monitor_polls", perRun(float64(a.polls), a.runs))
	o.set("core.switches", perRun(float64(a.switches), a.runs))
	o.set("core.switch_ratio", perRun(float64(a.switches), a.polls))
	o.set("core.phase_ms", perRun(ms(a.phaseTime), a.phases))
	o.set("core.stitchup_ms", perRun(ms(a.stitch), a.stitchRuns))
	o.set("core.stitch_combos", perRun(float64(a.combos), a.runs))
	o.set("core.stitch_reuse_ratio", perRun(float64(a.reused), int(a.reused+a.discarded)))
	o.set("exec.self_ms", perRun(ms(a.self), a.runs))
	o.set("exec.partition_skew", perRun(sum(a.skews), len(a.skews)))
	o.set("exec.first_row_frac", perRun(sum(a.firstFrac), len(a.firstFrac)))
	o.set("engine.deliver_ms", perRun(ms(a.deliver), a.runs))
	o.set("engine.rows_per_flush", perRun(float64(a.rowsOut), a.flushes))
	o.set("engine.next_wait_ms", perRun(ms(a.wait), a.runs))
	o.note("traced runs: %d", a.runs)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
