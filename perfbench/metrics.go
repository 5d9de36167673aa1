package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// minTail is how many samples must lie beyond a reported tail
// percentile; runs keep measuring past --seconds until every latency
// series has enough samples for its tail.
const minTail = 10

// failedLatency is the latency recorded for a failed or refused
// operation: it misses every latency limit, so it sorts above all
// successful samples and pushes the percentiles up.
var failedLatency = math.Inf(1)

// samples is a latency series in milliseconds.
type samples []float64

// addDur records a successful operation's latency.
func (s *samples) addDur(d time.Duration) { *s = append(*s, ms(d)) }

// addFailed records an operation that failed or was refused.
func (s *samples) addFailed() { *s = append(*s, failedLatency) }

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of the
// series and how many samples lie strictly beyond its rank. An empty
// series yields NaN.
func (s samples) percentile(p float64) (value float64, beyond int) {
	n := len(s)
	if n == 0 {
		return math.NaN(), 0
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p*float64(n)-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank], n - 1 - rank
}

// tail is percentile that insists on at least minTail samples beyond the
// rank, the rule for the highest reportable percentile.
func (s samples) tail(p float64) (float64, error) {
	v, beyond := s.percentile(p)
	if beyond < minTail {
		return v, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, len(s), beyond, minTail)
	}
	return v, nil
}

// deciles renders the series' 10th to 100th percentiles in ms.
func (s samples) deciles() string {
	var b strings.Builder
	for d := 1; d <= 10; d++ {
		v, _ := s.percentile(float64(d) / 10)
		if d > 1 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.1f", v)
	}
	return b.String()
}

// needed reports how many samples a series must hold before its
// p-quantile has minTail samples beyond it.
func needed(p float64) int {
	n := minTail
	for {
		if _, beyond := make(samples, n).percentile(p); beyond >= minTail {
			return n
		}
		n++
	}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of a float series (NaN when empty).
func median(xs []float64) float64 {
	v, _ := samples(xs).percentile(0.5)
	return v
}

// interval is a half-open span of time on one clock.
type interval struct{ start, end time.Duration }

// selfTime is a span's duration minus the part of its interval that its
// children cover, minus extra time attributed to children that have no
// interval of their own (sampled source reads). Overlapping children are
// counted once, children are clipped to the parent, and the result never
// goes below zero.
func selfTime(parent interval, children []interval, extra time.Duration) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	self := parent.end - parent.start - covered - extra
	if self < 0 {
		return 0
	}
	return self
}

// openLoop issues operations on a fixed schedule that does not slow down
// when the system does: operation i is due at start + i*every and is
// handed to the first of conns workers that is free. op receives the due
// time, so its latency counts any wait a stall imposed on it. Issuing
// stops with the first operation due after until once at least minOps
// were issued. openLoop returns after every worker finished, with the
// generator's lag per operation: how late each was handed to a worker.
func openLoop(every time.Duration, conns int, until time.Time, minOps int, op func(i int, due time.Time)) []time.Duration {
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				op(j.i, j.due)
			}
		}()
	}
	start := time.Now()
	var lags []time.Duration
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * every)
		if i >= minOps && due.After(until) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- job{i, due}
		lags = append(lags, time.Since(due))
	}
	close(jobs)
	wg.Wait()
	return lags
}
