package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/metrics"
	"sort"
	"time"

	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/engine"
	"github.com/tukwila/adp/internal/ivm"
	"github.com/tukwila/adp/internal/server"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
	"github.com/tukwila/adp/internal/workload"
)

// standingDeltas is the delta-script length: at the default watermark
// cadence (one window per 2048 delta reads) about 49 windows per
// standing query.
const standingDeltas = 100000

// deltaSpacing is the virtual time between scripted deltas, far below
// the cost of maintaining one: the engine never waits for a delta to
// arrive, so virtual_s measures maintenance work, not the script's span.
const deltaSpacing = 1e-7

// churnScript draws a seeded script of re-inserts and retractions of
// existing lineitem rows, half each, stamped deltaSpacing apart.
// A retraction may hit a row an earlier retraction already removed; the
// engine clamps those.
func churnScript(lineitem *source.Relation, seed int64) []source.Delta {
	rng := rand.New(rand.NewSource(seed))
	script := make([]source.Delta, standingDeltas)
	for i := range script {
		row := lineitem.Rows[rng.Intn(len(lineitem.Rows))]
		sign := 1
		if rng.Intn(2) == 0 {
			sign = -1
		}
		script[i] = source.Delta{Row: row, Sign: sign, At: float64(i+1) * deltaSpacing}
	}
	return script
}

// applyScript returns the relation's rows after the script under
// multiset semantics, a retraction of a row with no live copy dropped,
// and how many were dropped.
func applyScript(rel *source.Relation, script []source.Delta) ([]types.Tuple, int) {
	live := map[string]int{}
	rowOf := map[string]types.Tuple{}
	key := func(t types.Tuple) string { return string(server.AppendRowFrame(nil, t)) }
	for _, t := range rel.Rows {
		k := key(t)
		live[k]++
		rowOf[k] = t
	}
	clamped := 0
	for _, d := range script {
		k := key(d.Row)
		switch {
		case d.Sign > 0:
			live[k]++
			rowOf[k] = d.Row
		case live[k] > 0:
			live[k]--
		default:
			clamped++
		}
	}
	keys := make([]string, 0, len(live))
	for k := range live {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var rows []types.Tuple
	for _, k := range keys {
		for i := 0; i < live[k]; i++ {
			rows = append(rows, rowOf[k])
		}
	}
	return rows, clamped
}

// churnEnv is skewed data plus the delta script.
type churnEnv struct {
	data   *dataEnv
	script []source.Delta
}

// cycleResult is one standing query's measured run.
type cycleResult struct {
	baseline time.Duration
	windows  []time.Duration // wall time between consecutive windows after the baseline
	maintain time.Duration   // Seq-0 window to the last window
	alloc    uint64          // bytes allocated over maintain
	updates  int             // updates after the baseline window
	rep      *core.Report
	folded   []ivm.Update
}

// windowClock stamps window arrivals for one standing query.
type windowClock struct {
	start   time.Time
	last    time.Time
	res     *cycleResult
	sample  []metrics.Sample
	alloc0  uint64
	seen    int
	seqErr  error
	updates []ivm.Update
}

func newWindowClock(start time.Time, res *cycleResult) *windowClock {
	return &windowClock{start: start, res: res, sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (w *windowClock) window(at time.Time, wm core.UpdateWatermark, us []ivm.Update) {
	if w.seen == 0 {
		if wm.Seq != 0 && w.seqErr == nil {
			w.seqErr = fmt.Errorf("first window has seq %d, want the baseline 0", wm.Seq)
		}
		w.res.baseline = at.Sub(w.start)
		metrics.Read(w.sample)
		w.alloc0 = w.sample[0].Value.Uint64()
	} else {
		w.res.windows = append(w.res.windows, at.Sub(w.last))
		w.res.updates += len(us)
	}
	w.seen++
	w.last = at
	w.updates = append(w.updates, us...)
}

// finish closes the clock after the last window.
func (w *windowClock) finish() error {
	if w.seen == 0 {
		return fmt.Errorf("no baseline window")
	}
	metrics.Read(w.sample)
	w.res.alloc = w.sample[0].Value.Uint64() - w.alloc0
	w.res.maintain = w.last.Sub(w.start) - w.res.baseline
	w.res.folded = w.updates
	return w.seqErr
}

// standingCycle registers Q3A over the script through
// Engine.RegisterStanding and consumes its windows until the script is
// exhausted.
func standingCycle(ctx context.Context, env *churnEnv) (*cycleResult, error) {
	res := &cycleResult{}
	start := time.Now()
	sq, err := env.data.eng.RegisterStanding(ctx, workload.Q3A(), map[string][]source.Delta{"lineitem": env.script},
		engine.WithStrategy(core.Corrective))
	if err != nil {
		return nil, err
	}
	defer sq.Close()
	clock := newWindowClock(start, res)
	for {
		w, ok := sq.NextWindow()
		if !ok {
			break
		}
		clock.window(time.Now(), w.Watermark, w.Updates)
	}
	if res.rep, err = sq.Report(); err != nil {
		return nil, err
	}
	return res, clock.finish()
}

// tracedCycle is standingCycle through core.RunMaintenance, the function
// RegisterStanding runs, under the benchmark's hooks.
func tracedCycle(ctx context.Context, env *churnEnv, tr *tracer, req int64) (*cycleResult, runTrace, error) {
	res := &cycleResult{}
	rel := env.data.rels["lineitem"]
	dp, err := source.NewDeltaProvider(source.NewProvider(rel, nil), env.script)
	if err != nil {
		return nil, runTrace{}, err
	}
	m := &core.MaintOptions{Deltas: map[string]source.Provider{"lineitem": dp}}
	start := time.Now()
	clock := newWindowClock(start, res)
	rep, rt, err := tracedRun(ctx, tr, req, env.data.rels, workload.Q3A(), core.Options{Strategy: core.Corrective}, m, clock.window)
	if err != nil {
		return nil, rt, err
	}
	res.rep = rep
	return res, rt, clock.finish()
}

// check compares a cycle's answers: the streamed windows must fold to
// exactly Report.Maintained, and Maintained must match the from-scratch
// reference.
func (c *cycleResult) check(want []types.Tuple) error {
	if err := sameFrames(rowFrames(ivm.Fold(c.folded).Rows()), rowFrames(c.rep.Maintained)); err != nil {
		return fmt.Errorf("folded windows differ from Report.Maintained: %w", err)
	}
	if err := sameAnswer(c.rep.Maintained, want); err != nil {
		return fmt.Errorf("maintained view differs from a from-scratch run: %w", err)
	}
	return nil
}

// runStanding is standing_churn: Q3A registered as a standing query over
// skewed data, maintained through the whole delta script, repeatedly.
// The traced run alternates untraced standing queries with ones run
// through core.RunMaintenance under the benchmark's hooks.
func runStanding(cfg config) (*outcome, error) {
	out := newOutcome()
	env, setup, err := setupMedian(func() (*churnEnv, error) {
		data := newDataEnv(cfg.seed, true)
		return &churnEnv{data: data, script: churnScript(data.rels["lineitem"], cfg.scriptSeed)}, nil
	}, func(*churnEnv) {})
	if err != nil {
		return nil, err
	}
	out.set("setup_s", setup)

	// Reference: Q3A from scratch over the bases with the script applied.
	after, clamped := applyScript(env.data.rels["lineitem"], env.script)
	scratch := &dataEnv{eng: engine.New()}
	for name, rel := range env.data.rels {
		if name == "lineitem" {
			rel = source.NewRelation(rel.Name, rel.Schema, after)
		}
		scratch.eng.Register(rel)
	}
	want, _, err := scratch.reference(workload.Q3A())
	if err != nil {
		return nil, err
	}
	out.note("script: %d deltas, %d retractions of rows with no live copy", len(env.script), clamped)

	ctx := context.Background()
	tr := newTracer()
	var (
		windows, tracedWin, baselines samples
		virtual                       []float64
		deltas                        int64
		maintain                      time.Duration
		alloc                         uint64
		// Traced standing queries: their layers and ivm counters.
		layers                            layerAcc
		tDeltas, tUpdates, tClamped       int64
		tWindows, tMaintSwitches, tCycles int
	)
	minOps := needed(0.9)
	p := startProbe()
	deadline := time.Now().Add(cfg.seconds)
	for cycle := 0; time.Now().Before(deadline) || len(windows) < minOps; cycle++ {
		traced := cfg.trace && cycle%2 == 1
		var (
			res *cycleResult
			rt  runTrace
		)
		if traced {
			res, rt, err = tracedCycle(ctx, env, tr, int64(cycle))
		} else {
			res, err = standingCycle(ctx, env)
		}
		out.attempted++
		if err == nil {
			err = res.check(want)
		}
		if err != nil {
			out.fail("standing query %d: %v", cycle, err)
			if !traced {
				windows.addFailed()
			}
			continue
		}
		if traced {
			for _, w := range res.windows {
				tracedWin.addDur(w)
			}
			layers.add(rt, res.rep)
			tDeltas += res.rep.DeltaRows
			tUpdates += int64(res.updates)
			tClamped += res.rep.DeltaClamped
			tWindows += len(res.windows)
			tMaintSwitches += res.rep.MaintSwitches
			tCycles++
			continue
		}
		for _, w := range res.windows {
			windows.addDur(w)
		}
		baselines.addDur(res.baseline)
		virtual = append(virtual, res.rep.VirtualSeconds)
		deltas += res.rep.DeltaRows
		maintain += res.maintain
		alloc += res.alloc
	}
	r := p.finish()
	out.latencies(windows, "latency_p50_ms", "latency_p90_ms")
	out.latencies(baselines, "first_row_p50_ms", "")
	out.set("ops_per_s", float64(deltas)/maintain.Seconds())
	out.set("virtual_s", median(virtual))
	out.runtimeMetrics(r, out.attempted)
	out.set("alloc_mb_per_op", float64(alloc)/float64(deltas)/1e6)
	if cfg.trace {
		layers.report(out)
		out.set("ivm.updates_per_delta", perRun(float64(tUpdates), int(tDeltas)))
		out.set("ivm.clamped_ratio", perRun(float64(tClamped), int(tDeltas)))
		out.set("core.maint_switches", perRun(float64(tMaintSwitches), tCycles))
		out.set("ivm.window_updates", perRun(float64(tUpdates), tWindows))
		out.set("trace.overhead_frac", median(tracedWin)/median(windows)-1)
		if err := tr.write(tracePath(cfg)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
