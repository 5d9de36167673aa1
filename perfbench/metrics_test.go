package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func series(n int) samples {
	s := make(samples, n)
	for i := range s {
		s[i] = float64(n - i) // unsorted on purpose
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	v, beyond := series(100).percentile(0.9)
	if v != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	v, beyond = series(100).percentile(0.5)
	if v != 50 || beyond != 50 {
		t.Fatalf("p50 of 1..100 = %v with %d beyond, want 50 with 50", v, beyond)
	}
	if v, _ := (samples{}).percentile(0.5); !math.IsNaN(v) {
		t.Fatalf("p50 of no samples = %v, want NaN", v)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	if n := needed(0.9); n != 100 {
		t.Fatalf("needed(0.9) = %d, want 100", n)
	}
	if _, err := series(99).tail(0.9); err == nil {
		t.Fatal("p90 of 99 samples accepted with 9 beyond it")
	}
	if v, err := series(100).tail(0.9); err != nil || v != 90 {
		t.Fatalf("p90 of 100 samples = %v, %v; want 90, nil", v, err)
	}
	o := newOutcome()
	o.latencies(series(50), "latency_p50_ms", "latency_p90_ms")
	if o.failed != 1 {
		t.Fatalf("a p90 over 50 samples counted %d failures, want 1", o.failed)
	}
	found := false
	for _, n := range o.notes {
		if strings.HasPrefix(n, "latency_p50_ms/latency_p90_ms: 50 samples, 5 beyond p90;") {
			found = true
		}
	}
	if !found {
		t.Fatalf("sample count not reported: %q", o.notes)
	}
}

func TestFailuresMissEveryLatencyLimit(t *testing.T) {
	var s samples
	for i := 1; i <= 90; i++ {
		s.addDur(time.Duration(i) * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		s.addFailed()
	}
	if v, _ := s.percentile(0.9); v != 90 {
		t.Fatalf("p90 with 10%% failures = %v, want the slowest success 90", v)
	}
	if v, _ := s.percentile(0.5); v != 50 {
		t.Fatalf("p50 with 10%% failures = %v, want 50", v)
	}
	s.addFailed()
	if v, _ := s.percentile(0.9); !math.IsInf(v, 1) {
		t.Fatalf("p90 with 11 of 101 failed = %v, want +Inf", v)
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	parent := interval{10, 110}
	cases := []struct {
		name     string
		children []interval
		extra    time.Duration
		want     time.Duration
	}{
		{"no children", nil, 0, 100},
		{"disjoint", []interval{{20, 30}, {50, 60}}, 0, 80},
		{"overlapping counted once", []interval{{20, 40}, {30, 50}}, 0, 70},
		{"clipped to the parent", []interval{{0, 20}, {100, 200}}, 0, 80},
		{"children cover all", []interval{{0, 200}}, 0, 0},
		{"extra exceeds the rest", []interval{{20, 60}}, 80, 0},
		{"extra subtracted", []interval{{20, 60}}, 10, 50},
		{"empty child", []interval{{40, 40}}, 0, 100},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children, c.extra); got != c.want {
			t.Errorf("%s: self = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestOpenLoopTimesFromDueAndReportsLag(t *testing.T) {
	const every = 5 * time.Millisecond
	var (
		mu     sync.Mutex
		waited = map[int]time.Duration{}
	)
	lags := openLoop(every, 1, time.Now(), 4, func(i int, due time.Time) {
		mu.Lock()
		waited[i] = time.Since(due)
		mu.Unlock()
		if i == 0 {
			time.Sleep(10 * every) // a stall every later request must wait out
		}
	})
	if len(lags) != 4 || len(waited) != 4 {
		t.Fatalf("issued %d operations (%d ran), want the minimum 4", len(lags), len(waited))
	}
	for i := 1; i < 4; i++ {
		// Operation i was due at i*every but could start only after the
		// stall: its latency from due time carries that wait.
		if w := waited[i]; w < 10*every-time.Duration(i)*every-time.Millisecond {
			t.Errorf("op %d waited %v from its due time, want the stall's remainder", i, w)
		}
		if lags[i] < waited[i]-time.Millisecond {
			t.Errorf("op %d: generator lag %v, but it was handed over %v late", i, lags[i], waited[i])
		}
	}
}

func TestBenchmarkJSONMatchesTheMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not run by the command", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
