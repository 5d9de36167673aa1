package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/types"
)

// rowsExact renders a row sequence order-sensitively (byte-identical
// comparison of delivered order, not just the multiset).
func rowsExact(rows []types.Tuple) string {
	var sb strings.Builder
	for _, t := range rows {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// spjFlightsQuery is the flights query as a pure select-project-join.
func spjFlightsQuery() *algebra.Query {
	q := flightsQuery()
	q.GroupBy, q.Aggs = nil, nil
	q.Project = []string{"F.fid", "C.num"}
	return q
}

// TestOrderReleasingMergeStreamsEarly pins the PR 9 merge protocol: at
// P=4 an SPJ run delivers its first result rows strictly before the
// phase completes (the old phase-end barrier held everything until
// PartitionStats), the streamed sequence is exactly the final report's
// row order (early releases are prefixes of the total order — the order
// itself is unchanged), and the delivered multiset is byte-identical to
// the serial baseline's.
func TestOrderReleasingMergeStreamsEarly(t *testing.T) {
	q := spjFlightsQuery()

	// Serial baseline.
	f, tr, c := flightsData(80, 200, 150, 11)
	serial, err := Run(catalogOf(f, tr, c), q, Options{Strategy: Static, PollEvery: 30})
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu              sync.Mutex
		streamed        []types.Tuple
		rowsBeforePhase int
		phaseDone       bool
	)
	hooks := RunHooks{
		OnRows: func(rows []types.Tuple) {
			mu.Lock()
			streamed = append(streamed, rows...)
			if !phaseDone {
				rowsBeforePhase += len(rows)
			}
			mu.Unlock()
		},
		Emit: func(ev Event) {
			if _, ok := ev.(PartitionStats); ok {
				mu.Lock()
				phaseDone = true
				mu.Unlock()
			}
		},
	}
	f, tr, c = flightsData(80, 200, 150, 11)
	rep, err := RunStream(context.Background(), catalogOf(f, tr, c), q, Options{
		Strategy: Static, PollEvery: 30, Partitions: 4,
	}, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if !phaseDone {
		t.Fatal("run emitted no PartitionStats (did it execute serially?)")
	}
	if rep.Partitions != 4 {
		t.Fatalf("run executed at P=%d, want 4", rep.Partitions)
	}
	if rowsBeforePhase == 0 {
		t.Error("no rows released before phase completion: the order-releasing merge never streamed")
	}
	if got, want := rowsExact(streamed), rowsExact(rep.Rows); got != want {
		t.Error("streamed sequence diverges from the report's row order (early release changed the total order)")
	}
	ss, ps := sortedStrings(serial.Rows), sortedStrings(rep.Rows)
	if len(ss) != len(ps) {
		t.Fatalf("P=4 rows = %d, serial %d", len(ps), len(ss))
	}
	for i := range ss {
		if ss[i] != ps[i] {
			t.Fatalf("P=4 multiset diverges from serial at %d: %s vs %s", i, ps[i], ss[i])
		}
	}
	t.Logf("released %d/%d rows before phase completion", rowsBeforePhase, len(rep.Rows))
}
