package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/core"
	"github.com/tukwila/adp/internal/engine"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/server"
	"github.com/tukwila/adp/internal/types"
	"github.com/tukwila/adp/internal/workload"
)

// Open-loop load for serve_stream: about half the closed-loop capacity of
// a 2-CPU machine, on at most two connections. Near capacity, latency
// from the due time is dominated by queueing and swings with the speed
// of a shared host, so the rate stays well below it.
const (
	serveEvery = 250 * time.Millisecond
	serveConns = 2
	// servePartitions is the partition-parallel width of both queries.
	servePartitions = 2
	// serveReplays is how many times the traced run replays each request
	// in-process to measure the layers below the wire.
	serveReplays = 5
)

// The two requests of the mix. spjBody streams tens of thousands of rows
// (customer ⋈ orders ⋈ lineitem for one market segment); q10Body is the
// prepared Q10 aggregate.
const (
	spjBody = `{"query":{"name":"spj","relations":["customer","orders","lineitem"],` +
		`"joins":[{"left":"customer.c_custkey","right":"orders.o_custkey"},{"left":"orders.o_orderkey","right":"lineitem.l_orderkey"}],` +
		`"filters":[{"col":"customer.c_mktsegment","op":"=","value":"BUILDING"}],` +
		`"select":["customer.c_name","orders.o_orderkey","orders.o_orderdate","lineitem.l_linenumber","lineitem.l_extendedprice"]},` +
		`"options":{"strategy":"corrective","partitions":2}}`
	q10Body = `{"query":{"prepared":"Q10"},"options":{"strategy":"corrective","partitions":2}}`
)

// spjQuery is spjBody as the engine's query builder states it, for the
// reference answer and the in-process replay.
func spjQuery(eng *engine.Engine) (*algebra.Query, error) {
	return eng.Query("spj").From("customer", "orders", "lineitem").
		Join("customer", "c_custkey", "orders", "o_custkey").
		Join("orders", "o_orderkey", "lineitem", "l_orderkey").
		Where("customer", expr.Eq(expr.Column("customer.c_mktsegment"), expr.StrLit("BUILDING"))).
		Select("customer.c_name", "orders.o_orderkey", "orders.o_orderdate", "lineitem.l_linenumber", "lineitem.l_extendedprice").
		Build()
}

// Frame prefixes, matched as bytes so the client never decodes JSON while
// a request is on the clock.
var (
	schemaPrefix = []byte(`{"type":"schema"`)
	rowPrefix    = []byte(`{"type":"row"`)
	reportPrefix = []byte(`{"type":"report"`)
	errorPrefix  = []byte(`{"type":"error"`)
)

// serveEnv is uniform data behind an in-process query server listening
// on loopback.
type serveEnv struct {
	data *dataEnv
	url  string
	srv  *http.Server
	done chan struct{}
}

func newServeEnv(seed int64) (*serveEnv, error) {
	data := newDataEnv(seed, false)
	svc := server.New(data.eng, server.Config{})
	svc.RegisterPrepared("Q10", workload.Q10())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &serveEnv{data: data, url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: svc}, done: make(chan struct{})}
	go func() {
		defer close(e.done)
		e.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return e, nil
}

// close stops the server and waits for its goroutine.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		e.srv.Close()
	}
	<-e.done
}

// wireRef is one request's reference answer.
type wireRef struct {
	name string
	body string
	q    *algebra.Query
	spj  bool
	// Select-project-join answers compare as a byte-exact multiset of row
	// frames: index numbers each distinct reference frame, want counts
	// its copies.
	index map[string]int
	want  []int
	// Aggregate answers compare as sorted rows within relTol.
	rows  []types.Tuple
	kinds []types.Kind
}

func newWireRef(env *dataEnv, name, body string, q *algebra.Query, spj bool) (*wireRef, error) {
	rows, rep, err := env.reference(q)
	if err != nil {
		return nil, err
	}
	r := &wireRef{name: name, body: body, q: q, spj: spj}
	if !spj {
		r.rows = rows
		for _, c := range rep.Schema.Cols {
			r.kinds = append(r.kinds, c.Kind)
		}
		return r, nil
	}
	r.index = map[string]int{}
	for _, f := range rowFrames(rows) {
		i, ok := r.index[string(f)]
		if !ok {
			i = len(r.want)
			r.index[string(f)] = i
			r.want = append(r.want, 0)
		}
		r.want[i]++
	}
	return r, nil
}

// check compares one response's row frames with the reference.
func (r *wireRef) check(frames [][]byte) error {
	if !r.spj {
		got := make([]types.Tuple, 0, len(frames))
		for _, f := range frames {
			t, err := decodeRowFrame(f, r.kinds)
			if err != nil {
				return err
			}
			got = append(got, t)
		}
		return sameAnswer(got, r.rows)
	}
	counts := make([]int, len(r.want))
	for _, f := range frames {
		i, ok := r.index[string(f)]
		if !ok {
			return fmt.Errorf("row frame %q is not in the reference answer", f)
		}
		counts[i]++
	}
	for i, n := range counts {
		if n != r.want[i] {
			return fmt.Errorf("a reference row frame arrived %d times, want %d", n, r.want[i])
		}
	}
	return nil
}

// checkRows compares rows the engine returned in-process with the
// reference, as check compares streamed frames.
func (r *wireRef) checkRows(rows []types.Tuple) error {
	if !r.spj {
		return sameAnswer(rows, r.rows)
	}
	frames := make([][]byte, len(rows))
	for i, t := range rows {
		frames[i] = server.AppendRowFrame(nil, t)
	}
	return r.check(frames)
}

// response is what the client saw of one request. Times are wall clock.
type response struct {
	sent, headers, schema, firstRow, end time.Time
	rows                                 int
	bytes                                int
	frames                               [][]byte // row frames, aliasing buf
	buf                                  []byte
	terminal                             []byte // the report or error frame
	err                                  error
}

// post sends one request and reads its NDJSON stream, splitting frames
// by byte prefix only. buf is reused across calls to hold row frames.
func post(client *http.Client, url, body string, buf []byte) response {
	r := response{buf: buf[:0]}
	r.sent = time.Now()
	resp, err := client.Post(url+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	r.headers = time.Now()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		r.end = time.Now()
		r.err = fmt.Errorf("HTTP %d", resp.StatusCode)
		return r
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var offsets []int
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			// Only report frames grow this long; keep reading the frame.
			long := append([]byte(nil), line...)
			for errors.Is(err, bufio.ErrBufferFull) {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if len(line) > 0 {
			r.bytes += len(line)
			switch {
			case bytes.HasPrefix(line, rowPrefix):
				if r.rows == 0 {
					r.firstRow = time.Now()
				}
				r.rows++
				offsets = append(offsets, len(r.buf))
				r.buf = append(r.buf, line...)
			case bytes.HasPrefix(line, schemaPrefix):
				r.schema = time.Now()
			case bytes.HasPrefix(line, reportPrefix), bytes.HasPrefix(line, errorPrefix):
				r.terminal = append([]byte(nil), line...)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			r.err = err
			break
		}
	}
	r.end = time.Now()
	offsets = append(offsets, len(r.buf))
	r.frames = make([][]byte, r.rows)
	for i := range r.frames {
		r.frames[i] = r.buf[offsets[i]:offsets[i+1]]
	}
	switch {
	case r.err != nil:
	case r.schema.IsZero():
		r.err = errors.New("no schema frame")
	case bytes.HasPrefix(r.terminal, errorPrefix):
		r.err = fmt.Errorf("error frame %s", bytes.TrimSpace(r.terminal))
	case r.terminal == nil:
		r.err = errors.New("stream ended without a terminal frame")
	}
	return r
}

// reportNumber extracts a numeric field of a report frame by byte search.
func reportNumber(frame []byte, field string) (float64, error) {
	key := []byte(`"` + field + `":`)
	i := bytes.Index(frame, key)
	if i < 0 {
		return 0, fmt.Errorf("report frame has no %s", field)
	}
	rest := frame[i+len(key):]
	j := bytes.IndexAny(rest, ",}")
	if j < 0 {
		return 0, fmt.Errorf("report frame field %s is unterminated", field)
	}
	return strconv.ParseFloat(string(rest[:j]), 64)
}

// scrape reads counters from the server's /metrics page.
func scrape(url string, names ...string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		for _, n := range names {
			if rest, ok := strings.CutPrefix(line, n+" "); ok {
				v, err := strconv.ParseFloat(rest, 64)
				if err != nil {
					return nil, fmt.Errorf("metric %s: %w", n, err)
				}
				out[n] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("/metrics has no %s", n)
		}
	}
	return out, nil
}

// runServe is serve_stream: an open loop alternating the SPJ stream and
// prepared Q10 against the server over loopback. Latency runs from each
// request's due time. The traced run times the client-side spans of
// every other request and, after the loop, replays both requests
// in-process through core.RunStream for the layers below the wire.
func runServe(cfg config) (*outcome, error) {
	out := newOutcome()
	env, setup, err := setupMedian(func() (*serveEnv, error) { return newServeEnv(cfg.seed) }, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	out.set("setup_s", setup)
	spj, err := spjQuery(env.data.eng)
	if err != nil {
		return nil, err
	}
	refSPJ, err := newWireRef(env.data, "spj", spjBody, spj, true)
	if err != nil {
		return nil, err
	}
	refQ10, err := newWireRef(env.data, "Q10", q10Body, workload.Q10(), false)
	if err != nil {
		return nil, err
	}
	// Three streams to one aggregate: the latency median and p90 then fall
	// inside the select-project-join mode of the two-mode distribution,
	// not in the gap between the modes.
	mix := []*wireRef{refSPJ, refQ10, refSPJ, refSPJ}

	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}}
	defer client.CloseIdleConnections()
	tr := newTracer()
	var (
		mu                        sync.Mutex
		lat, first, plain, traced samples
		virtual                   = map[string][]float64{}
		rowsSeen                  int
		bytesSeen                 int
		headers, firstFrame, body time.Duration
		spanned                   int
		firstFrac                 []float64
	)
	// bufs pools one frame buffer per connection.
	bufs := make(chan []byte, serveConns)
	for i := 0; i < serveConns; i++ {
		bufs <- nil
	}
	minOps := needed(0.9)
	p := startProbe()
	start := time.Now()
	lags := openLoop(serveEvery, serveConns, start.Add(cfg.seconds), minOps, func(i int, due time.Time) {
		ref := mix[i%len(mix)]
		r := post(client, env.url, ref.body, <-bufs)
		took := r.end.Sub(due)
		if r.err == nil {
			r.err = ref.check(r.frames)
		}
		bufs <- r.buf[:0] // the frames alias it: free only after the check
		var v float64
		if r.err == nil {
			v, r.err = reportNumber(r.terminal, "virtual_seconds")
		}
		spans := cfg.trace && (i/len(mix))%2 == 1
		if spans {
			req := int64(i)
			root := tr.add("request", r.sent, r.end, -1, req)
			if !r.headers.IsZero() {
				tr.add("server.headers", r.sent, r.headers, root, req)
			}
			if !r.schema.IsZero() {
				tr.add("server.first_frame", r.sent, r.schema, root, req)
				tr.add("server.body", r.schema, r.end, root, req)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		out.attempted++
		rowsSeen += r.rows
		if r.err != nil {
			out.fail("request %d (%s): %v", i, ref.name, r.err)
			lat.addFailed()
			return
		}
		virtual[ref.name] = append(virtual[ref.name], v)
		lat.addDur(took)
		if ref.spj {
			first.addDur(r.firstRow.Sub(due))
			firstFrac = append(firstFrac, float64(r.firstRow.Sub(r.sent))/float64(r.end.Sub(r.sent)))
		}
		if !cfg.trace {
			return
		}
		if spans {
			traced.addDur(took)
			headers += r.headers.Sub(r.sent)
			firstFrame += r.schema.Sub(r.sent)
			body += r.end.Sub(r.schema)
			bytesSeen += r.bytes
			spanned++
		} else {
			plain.addDur(took)
		}
	})
	elapsed := time.Since(start)
	res := p.finish()

	var lagMs samples
	for _, l := range lags {
		lagMs.addDur(l)
	}
	lag50, _ := lagMs.percentile(0.5)
	lagMax, _ := lagMs.percentile(1)
	out.note("generator lag: p50 %.3f ms, max %.3f ms over %d requests", lag50, lagMax, len(lags))
	out.latencies(lat, "latency_p50_ms", "latency_p90_ms")
	out.latencies(first, "first_row_p50_ms", "")
	out.set("ops_per_s", float64(out.attempted-out.failed)/elapsed.Seconds())
	var passVirtual float64
	for _, ref := range mix {
		passVirtual += median(virtual[ref.name])
	}
	out.set("virtual_s", passVirtual)
	out.runtimeMetrics(res, len(lags))

	m, err := scrape(env.url, "adp_rows_delivered_total", "adp_plan_cache_hits_total", "adp_plan_cache_misses_total")
	if err != nil {
		return nil, err
	}
	if int(m["adp_rows_delivered_total"]) != rowsSeen {
		out.fail("server delivered %v rows, client counted %d", m["adp_rows_delivered_total"], rowsSeen)
	}
	if !cfg.trace {
		return out, nil
	}

	// Below the wire: replay both requests with the server's options and
	// plan cache through the function Engine.Stream runs.
	var (
		layers layerAcc
		replay int64
	)
	cache := engine.NewPlanCache(0)
	for k := 0; k < serveReplays; k++ {
		for _, ref := range mix {
			o := core.Options{Strategy: core.Corrective, Partitions: servePartitions}
			cache.Lookup(engine.Fingerprint(ref.q, o), &o)
			replay++
			rep, rt, err := tracedRun(context.Background(), tr, -replay, env.data.rels, ref.q, o, nil, nil)
			if err == nil {
				err = ref.checkRows(rep.Rows)
			}
			if err != nil {
				return nil, fmt.Errorf("replay of %s: %w", ref.name, err)
			}
			layers.add(rt, rep)
		}
	}
	layers.report(out)
	hits, misses := m["adp_plan_cache_hits_total"], m["adp_plan_cache_misses_total"]
	out.set("opt.plan_cache_hit_ratio", hits/(hits+misses))
	out.set("exec.first_row_frac", sum(firstFrac)/float64(len(firstFrac)))
	out.set("server.headers_ms", perRun(ms(headers), spanned))
	out.set("server.first_frame_ms", perRun(ms(firstFrame), spanned))
	out.set("server.body_ms", perRun(ms(body), spanned))
	out.set("server.bytes_per_row", perRun(float64(bytesSeen), rowsSeen))
	out.set("trace.overhead_frac", median(traced)/median(plain)-1)
	if err := tr.write(tracePath(cfg)); err != nil {
		return nil, err
	}
	return out, nil
}
