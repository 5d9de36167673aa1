package server

import (
	"bufio"
	"bytes"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/tukwila/adp/internal/types"
)

// BenchmarkRowEncode pins the per-row NDJSON encode hot path: appending
// one mixed int/float/string row frame into a reused buffer must not
// allocate (scripts/check_allocs.sh holds the budget at 0 allocs/op).
func BenchmarkRowEncode(b *testing.B) {
	tup := types.Tuple{
		types.Int(1234567), types.Str("BUILDING"), types.Float(48032.1634), types.Int(3),
	}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendRowFrame(buf[:0], tup)
	}
	if len(buf) == 0 {
		b.Fatal("no output")
	}
}

// BenchmarkServeQuery measures one end-to-end wire query — admission,
// plan-cache hit, streaming execution, NDJSON encode, HTTP transport —
// against the in-process fixture. allocs/op here is whole-query, not
// per-row; the per-row budget is BenchmarkRowEncode's.
func BenchmarkServeQuery(b *testing.B) {
	eng, q := spjEngine(2_000)
	svc := New(eng, Config{MaxConcurrent: 4})
	svc.RegisterPrepared("spj", q)
	ts := httptest.NewServer(svc)
	defer ts.Close()
	body := `{"query":{"prepared":"spj"},"options":{"strategy":"corrective"}}`
	// The client only counts row frames, by their fixed prefix, into a
	// reused scan buffer: decoding each frame would cost more than the
	// server's encode and drown what the benchmark is for.
	rowPrefix := []byte(rowFramePrefix)
	scanBuf := make([]byte, 0, 1<<20)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(scanBuf, 1<<20)
		for sc.Scan() {
			if bytes.HasPrefix(sc.Bytes(), rowPrefix) {
				rows++
			}
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if rows != 2_000 {
			b.Fatalf("streamed %d rows, want 2000", rows)
		}
	}
	b.ReportMetric(2_000, "rows/op")
}
