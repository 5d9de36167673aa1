// Command perfbench is the repository benchmark: it drives the engine
// through its public entry points on three fixed workloads, checks every
// answer against a reference computed off the clock, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as one
// JSON object on the last line of standard output.
//
//	go run . --workload adaptive_batch --seed 1 --seconds 30 --trace 0
//
// Workloads: adaptive_batch (Engine.Stream, closed loop, serial),
// serve_stream (POST /v1/query over loopback, open loop) and
// standing_churn (Engine.RegisterStanding under a delta script). See
// README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"first_row_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"virtual_s", "s"},
	{"alloc_mb_per_op", "MB"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics every traced run reports. A layer a workload
// does not pass through reads 0 there.
var perLayer = []metricDef{
	{"source.rows_read", "count"},
	{"source.read_ms", "ms"},
	{"opt.initial_ms", "ms"},
	{"opt.plan_cache_hit_ratio", "ratio"},
	{"core.monitor_polls", "count"},
	{"core.switches", "count"},
	{"core.switch_ratio", "ratio"},
	{"core.phase_ms", "ms"},
	{"core.stitchup_ms", "ms"},
	{"core.stitch_combos", "count"},
	{"core.stitch_reuse_ratio", "ratio"},
	{"exec.self_ms", "ms"},
	{"exec.partition_skew", "ratio"},
	{"exec.first_row_frac", "ratio"},
	{"engine.deliver_ms", "ms"},
	{"engine.rows_per_flush", "count"},
	{"engine.next_wait_ms", "ms"},
	{"server.headers_ms", "ms"},
	{"server.first_frame_ms", "ms"},
	{"server.body_ms", "ms"},
	{"server.bytes_per_row", "B"},
	{"ivm.updates_per_delta", "ratio"},
	{"ivm.clamped_ratio", "ratio"},
	{"core.maint_switches", "count"},
	{"ivm.window_updates", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// config is one invocation's settings.
type config struct {
	workload   string
	seed       int64 // data seed
	scriptSeed int64 // standing_churn delta-script seed
	seconds    time.Duration
	trace      bool
}

// outcome collects what a workload run measured.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	notes             []string
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// set records a metric; the name must be one of the declared metrics.
func (o *outcome) set(name string, v float64) {
	if !known(endToEnd, name) && !known(perLayer, name) {
		panic("perfbench: undeclared metric " + name)
	}
	o.values[name] = v
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail records a failed operation with its reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.note("FAIL: "+format, args...)
}

// latencies reports a series' median under p50 and its p90 under p90,
// noting the sample count; a p90 with fewer than minTail samples beyond
// it fails the run.
func (o *outcome) latencies(s samples, p50, p90 string) {
	v50, _ := s.percentile(0.5)
	o.set(p50, v50)
	if p90 == "" {
		o.note("%s: %d samples", p50, len(s))
		return
	}
	v90, err := s.tail(0.9)
	o.set(p90, v90)
	if err != nil {
		o.fail("%s: %v", p90, err)
	}
	_, beyond := s.percentile(0.9)
	o.note("%s/%s: %d samples, %d beyond p90; deciles %s", p50, p90, len(s), beyond, s.deciles())
}

var workloads = map[string]func(cfg config) (*outcome, error){
	"adaptive_batch": runAdaptive,
	"serve_stream":   runServe,
	"standing_churn": runStanding,
}

func main() {
	var (
		cfg     config
		seconds int
		trace   int
		script  int64
	)
	flag.StringVar(&cfg.workload, "workload", "", "adaptive_batch | serve_stream | standing_churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "data seed")
	flag.Int64Var(&script, "script-seed", -1, "standing_churn delta-script seed (default: derived from --seed)")
	flag.IntVar(&seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.scriptSeed = script
	if script < 0 {
		cfg.scriptSeed = cfg.seed*7919 + 17
	}
	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload adaptive_batch|serve_stream|standing_churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !emit(cfg, out) {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the notes, a table of the selected metrics and the result
// line; it reports whether the run was correct.
func emit(cfg config, out *outcome) bool {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, n := range out.notes {
		fmt.Println("#", n)
	}
	fmt.Printf("# %s seed=%d trace=%v attempted=%d failed=%d failed_frac=%.4g\n",
		cfg.workload, cfg.seed, cfg.trace, out.attempted, out.failed, float64(out.failed)/math.Max(1, float64(out.attempted)))
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok && !cfg.trace {
			res.Correct = false
			fmt.Printf("# FAIL: metric %s was not measured\n", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// JSON has no NaN or infinity; a failed tail reads as the
			// largest finite latency, missing every limit.
			res.Correct = false
			v = math.MaxFloat64
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("# %-26s %14.6g %s\n", d.name, v, d.unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	fmt.Println(string(b))
	return res.Correct
}

func known(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// setupRuns is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupRuns = 9

// setupMedian calls build setupRuns times, releasing all but the last
// result, and returns that result with the median build time.
func setupMedian[T any](build func() (T, error), release func(T)) (T, float64, error) {
	var (
		env   T
		times []float64
	)
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			release(env)
		}
		t := time.Now()
		e, err := build()
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(t).Seconds())
		env = e
	}
	return env, median(times), nil
}

// probe samples the Go runtime around a measured region: heap in use
// (sampled for its peak), bytes allocated, GC cycles and GC CPU time.
type probe struct {
	start runtimeStats
	stop  chan struct{}
	done  chan struct{}
	peak  uint64
}

type runtimeStats struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

var statNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
}

func readStats(s []metrics.Sample) (runtimeStats, uint64) {
	metrics.Read(s)
	return runtimeStats{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}, s[4].Value.Uint64() + s[5].Value.Uint64()
}

func newSamples() []metrics.Sample {
	s := make([]metrics.Sample, len(statNames))
	for i, n := range statNames {
		s[i].Name = n
	}
	return s
}

// heapSampleEvery is the heap sampling period for peak_heap_mb.
const heapSampleEvery = 5 * time.Millisecond

// startProbe collects garbage left by set-up, then starts sampling.
func startProbe() *probe {
	runtime.GC()
	p := &probe{stop: make(chan struct{}), done: make(chan struct{})}
	s := newSamples()
	p.start, p.peak = readStats(s)
	go func() {
		defer close(p.done)
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		s := newSamples()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				if _, inuse := readStats(s); inuse > p.peak {
					p.peak = inuse
				}
			}
		}
	}()
	return p
}

// probeResult is a probe's reading over its region.
type probeResult struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPUFrac  float64
	peakHeap   uint64
}

// finish stops sampling and returns the deltas since startProbe.
func (p *probe) finish() probeResult {
	close(p.stop)
	<-p.done
	end, inuse := readStats(newSamples())
	if inuse > p.peak {
		p.peak = inuse
	}
	r := probeResult{
		allocBytes: end.allocBytes - p.start.allocBytes,
		gcCycles:   end.gcCycles - p.start.gcCycles,
		peakHeap:   p.peak,
	}
	if cpu := end.totalCPU - p.start.totalCPU; cpu > 0 {
		r.gcCPUFrac = (end.gcCPU - p.start.gcCPU) / cpu
	}
	return r
}

// runtimeMetrics sets the runtime-derived metrics of a run over ops
// operations.
func (o *outcome) runtimeMetrics(r probeResult, ops int) {
	n := math.Max(1, float64(ops))
	o.set("alloc_mb_per_op", float64(r.allocBytes)/n/1e6)
	o.set("peak_heap_mb", float64(r.peakHeap)/1e6)
	o.set("runtime.gc_cycles", float64(r.gcCycles)/n)
	o.set("runtime.gc_cpu_frac", r.gcCPUFrac)
}

// tracePath is where a traced run writes its spans.
func tracePath(cfg config) string {
	return fmt.Sprintf(".bench_build/trace/%s-seed%d.jsonl", cfg.workload, cfg.seed)
}
