package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/ivm"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// span is one timed interval at a layer boundary. Times are offsets from
// the tracer's start; Parent is the index of the enclosing span, -1 for a
// request's root; spans of one request share Req.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Req    int64         `json:"req"`
}

// tracer keeps spans in memory until the run ends. Safe for concurrent
// use: the open-loop workers and the cursor goroutines record into it.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// at converts a wall time to the tracer's clock.
func (t *tracer) at(w time.Time) time.Duration { return w.Sub(t.t0) }

// add records a finished span and returns its index.
func (t *tracer) add(name string, start, end time.Time, parent int, req int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: t.at(start), End: t.at(end), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// adopt makes root the parent of the spans ids.
func (t *tracer) adopt(root int, ids []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, i := range ids {
		t.spans[i].Parent = root
	}
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// readSample is the sampling period of source reads: timing every
// Provider.Next would cost about as much as the read itself, so one call
// in readSample is timed and the total is extrapolated from those.
const readSample = 64

// timedProvider counts the rows a source hands out and times a sample of
// the calls. Providers are read by one goroutine at a time.
type timedProvider struct {
	source.Provider
	calls   int64
	rows    int64
	sampled int64
	spent   time.Duration
}

func (p *timedProvider) Next() (source.Row, bool) {
	p.calls++
	if p.calls%readSample != 0 {
		r, ok := p.Provider.Next()
		if ok {
			p.rows++
		}
		return r, ok
	}
	t := time.Now()
	r, ok := p.Provider.Next()
	p.spent += time.Since(t)
	p.sampled++
	if ok {
		p.rows++
	}
	return r, ok
}

// readTime extrapolates the time spent in Next from the sampled calls.
func (p *timedProvider) readTime() time.Duration {
	if p.sampled == 0 {
		return 0
	}
	return time.Duration(float64(p.spent) * float64(p.calls) / float64(p.sampled))
}

// tracedCatalog opens fresh providers over the relations, each wrapped
// in a timedProvider, as Engine.Stream opens plain ones.
func tracedCatalog(rels map[string]*source.Relation) (*core.Catalog, []*timedProvider) {
	cat := &core.Catalog{Providers: map[string]source.Provider{}}
	var tps []*timedProvider
	for name, rel := range rels {
		tp := &timedProvider{Provider: source.NewProvider(rel, nil)}
		cat.Providers[name] = tp
		tps = append(tps, tp)
	}
	return cat, tps
}

// cursorBuffer matches the engine cursor's buffer of in-flight batches,
// so the traced hand-off blocks the run exactly when Engine.Stream's
// would.
const cursorBuffer = 16

// runTrace is what one traced core run measured.
type runTrace struct {
	wall       time.Duration
	firstRow   time.Duration // run start to the first delivered row; 0 if none
	sourceRows int64
	sourceRead time.Duration
	optInitial time.Duration
	optRan     bool
	phases     []time.Duration
	stitchup   time.Duration
	deliver    time.Duration
	flushes    int
	rowsOut    int64
	nextWait   time.Duration
	polls      int
	switches   int
	partSkew   []float64 // max/mean of PartitionStats.Seconds per partitioned phase
	self       time.Duration
}

// delivery is one hand-off from the run to the benchmark's cursor: a row
// batch, or a standing-query window.
type delivery struct {
	rows    []types.Tuple
	window  bool
	wm      core.UpdateWatermark
	updates []ivm.Update
}

// tracedRun executes q through core.RunStream (or core.RunMaintenance
// when maint is set), the functions Engine.Stream and
// Engine.RegisterStanding run, with hooks that stamp every layer
// boundary. Result batches cross to a consumer goroutine through a
// buffered channel, as they cross to the engine's cursor; onWindow sees
// each standing-query window on that goroutine with its arrival time.
func tracedRun(ctx context.Context, tr *tracer, req int64, rels map[string]*source.Relation, q *algebra.Query, o core.Options,
	maint *core.MaintOptions, onWindow func(time.Time, core.UpdateWatermark, []ivm.Update)) (*core.Report, runTrace, error) {
	var rt runTrace
	cat, tps := tracedCatalog(rels)
	if maint != nil {
		for name, dp := range maint.Deltas {
			tp := &timedProvider{Provider: dp}
			maint.Deltas[name] = tp
			tps = append(tps, tp)
		}
	}
	start := time.Now()
	var (
		phaseStart time.Time
		stitchAt   time.Time
		children   []interval
		ids        []int // spans whose parent is this run's root
	)
	closePhase := func(at time.Time) {
		if !phaseStart.IsZero() {
			rt.phases = append(rt.phases, at.Sub(phaseStart))
			ids = append(ids, tr.add("core.phase", phaseStart, at, -1, req))
		}
		phaseStart = time.Time{}
	}
	fill := o.OnInitialPlan // a plan cache's fill hook, if any
	o.OnInitialPlan = func(p algebra.Plan) {
		if fill != nil {
			fill(p)
		}
		now := time.Now()
		rt.optInitial, rt.optRan = now.Sub(start), true
		ids = append(ids, tr.add("opt.initial", start, now, -1, req))
		children = append(children, interval{tr.at(start), tr.at(now)})
	}
	o.OnPoll = func(_, _, _ float64, _ bool) { rt.polls++ }

	ch := make(chan delivery, cursorBuffer)
	var firstRow time.Time
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			t := time.Now()
			d, ok := <-ch
			now := time.Now()
			if !ok {
				return
			}
			rt.nextWait += now.Sub(t)
			if d.window {
				onWindow(now, d.wm, d.updates)
				continue
			}
			if firstRow.IsZero() && len(d.rows) > 0 {
				firstRow = now
			}
		}
	}()
	send := func(d delivery, n int) {
		t := time.Now()
		select {
		case ch <- d:
		case <-ctx.Done():
		}
		now := time.Now()
		rt.deliver += now.Sub(t)
		rt.flushes++
		rt.rowsOut += int64(n)
		ids = append(ids, tr.add("engine.deliver", t, now, -1, req))
		children = append(children, interval{tr.at(t), tr.at(now)})
	}
	hooks := core.RunHooks{
		Emit: func(ev core.Event) {
			now := time.Now()
			switch e := ev.(type) {
			case core.PhaseStarted:
				closePhase(now)
				phaseStart = now
			case core.PlanSwitched:
				rt.switches++
			case core.StitchUpStarted:
				closePhase(now)
				stitchAt = now
			case core.MaintenanceStarted:
				closePhase(now)
			case core.PartitionStats:
				if s := skew(e.Seconds); s > 0 {
					rt.partSkew = append(rt.partSkew, s)
				}
			}
		},
		OnRows: func(rows []types.Tuple) { send(delivery{rows: rows}, len(rows)) },
	}
	if maint != nil {
		hooks.OnUpdates = func(wm core.UpdateWatermark, us []ivm.Update) {
			send(delivery{window: true, wm: wm, updates: us}, 0)
		}
	}
	var rep *core.Report
	var err error
	if maint != nil {
		rep, err = core.RunMaintenance(ctx, cat, q, o, *maint, hooks)
	} else {
		rep, err = core.RunStream(ctx, cat, q, o, hooks)
	}
	end := time.Now()
	close(ch)
	wg.Wait()
	closePhase(end)
	if !stitchAt.IsZero() {
		rt.stitchup = end.Sub(stitchAt)
		ids = append(ids, tr.add("core.stitchup", stitchAt, end, -1, req))
		children = append(children, interval{tr.at(stitchAt), tr.at(end)})
	}
	rt.wall = end.Sub(start)
	if !firstRow.IsZero() {
		rt.firstRow = firstRow.Sub(start)
	}
	for _, tp := range tps {
		rt.sourceRows += tp.rows
		rt.sourceRead += tp.readTime()
	}
	tr.adopt(tr.add("query", start, end, -1, req), ids)
	rt.self = selfTime(interval{tr.at(start), tr.at(end)}, children, rt.sourceRead)
	if err != nil {
		return nil, rt, fmt.Errorf("%s: %w", q.Name, err)
	}
	return rep, rt, nil
}

// skew is max/mean of per-partition busy seconds (0 when there are none).
func skew(secs []float64) float64 {
	var sum, hi float64
	for _, s := range secs {
		sum += s
		if s > hi {
			hi = s
		}
	}
	if len(secs) == 0 || sum == 0 {
		return 0
	}
	return hi / (sum / float64(len(secs)))
}
