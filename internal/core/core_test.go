package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/expr"
	"github.com/tukwila/adp/internal/opt"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
)

// --- Example 2.1 fixtures: F(fid,from,to,when), T(ssn,flight), C(p,num) --

func fSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "F.fid", Kind: types.KindInt},
		types.Column{Name: "F.from", Kind: types.KindString},
		types.Column{Name: "F.to", Kind: types.KindString},
		types.Column{Name: "F.when", Kind: types.KindInt},
	)
}

func tSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "T.ssn", Kind: types.KindInt},
		types.Column{Name: "T.flight", Kind: types.KindInt},
	)
}

func cSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "C.p", Kind: types.KindInt},
		types.Column{Name: "C.num", Kind: types.KindInt},
	)
}

// flightsData generates randomized Example 2.1 relations.
func flightsData(nF, nT, nC int, seed int64) (f, tr, c *source.Relation) {
	rng := rand.New(rand.NewSource(seed))
	cities := []string{"SEA", "SFO", "PHL", "JFK", "LAX"}
	fRows := make([]types.Tuple, nF)
	for i := range fRows {
		fRows[i] = types.Tuple{
			types.Int(int64(i)),
			types.Str(cities[rng.Intn(len(cities))]),
			types.Str(cities[rng.Intn(len(cities))]),
			types.Int(rng.Int63n(365)),
		}
	}
	tRows := make([]types.Tuple, nT)
	for i := range tRows {
		tRows[i] = types.Tuple{
			types.Int(rng.Int63n(int64(nT))),      // ssn (dups allowed)
			types.Int(rng.Int63n(int64(nF) + 20)), // flight (some dangling)
		}
	}
	cRows := make([]types.Tuple, nC)
	for i := range cRows {
		cRows[i] = types.Tuple{
			types.Int(rng.Int63n(int64(nT))),
			types.Int(rng.Int63n(6)),
		}
	}
	return source.NewRelation("F", fSchema(), fRows),
		source.NewRelation("T", tSchema(), tRows),
		source.NewRelation("C", cSchema(), cRows)
}

func flightsQuery() *algebra.Query {
	return &algebra.Query{
		Name: "flights",
		Relations: []algebra.RelRef{
			{Name: "F", Schema: fSchema()},
			{Name: "T", Schema: tSchema()},
			{Name: "C", Schema: cSchema()},
		},
		Joins: []algebra.JoinPred{
			{LeftRel: "F", LeftCol: "fid", RightRel: "T", RightCol: "flight"},
			{LeftRel: "T", LeftCol: "ssn", RightRel: "C", RightCol: "p"},
		},
		GroupBy: []string{"F.fid", "F.from"},
		Aggs:    []algebra.AggSpec{{Kind: algebra.AggMax, Arg: expr.Column("C.num"), As: "maxnum"}},
	}
}

func catalogOf(rels ...*source.Relation) *Catalog {
	m := map[string]*source.Relation{}
	for _, r := range rels {
		m[r.Name] = r
	}
	return NewCatalog(m, nil)
}

// refFlights computes the expected result by brute force.
func refFlights(f, tr, c *source.Relation) map[[2]string]int64 {
	out := map[[2]string]int64{}
	for _, ft := range f.Rows {
		for _, tt := range tr.Rows {
			if ft[0].I != tt[1].I {
				continue
			}
			for _, ct := range c.Rows {
				if tt[0].I != ct[0].I {
					continue
				}
				key := [2]string{ft[0].String(), ft[1].S}
				if v, ok := out[key]; !ok || ct[1].I > v {
					out[key] = ct[1].I
				}
			}
		}
	}
	return out
}

func checkFlightsResult(t *testing.T, rep *Report, want map[[2]string]int64) {
	t.Helper()
	if len(rep.Rows) != len(want) {
		t.Fatalf("groups = %d, want %d", len(rep.Rows), len(want))
	}
	for _, r := range rep.Rows {
		key := [2]string{r[0].String(), r[1].S}
		w, ok := want[key]
		if !ok {
			t.Fatalf("unexpected group %v", key)
		}
		if r[2].I != w {
			t.Fatalf("group %v max = %d, want %d", key, r[2].I, w)
		}
	}
}

func TestStaticMatchesBruteForce(t *testing.T) {
	f, tr, c := flightsData(150, 400, 300, 1)
	rep, err := Run(catalogOf(f, tr, c), flightsQuery(), Options{Strategy: Static})
	if err != nil {
		t.Fatal(err)
	}
	checkFlightsResult(t, rep, refFlights(f, tr, c))
	if len(rep.Phases) != 1 || rep.Switches != 0 {
		t.Errorf("static must run one phase: %+v", rep.Phases)
	}
	if rep.VirtualSeconds <= 0 || rep.RealSeconds <= 0 {
		t.Error("timing not recorded")
	}
}

func TestCorrectiveMatchesBruteForceWithForcedSwitching(t *testing.T) {
	// Aggressive switching: poll every 50 tuples and accept any plan that
	// is merely 1% better, so multiple phases occur and stitch-up runs.
	for seed := int64(1); seed <= 4; seed++ {
		f, tr, c := flightsData(120, 350, 250, seed)
		cat := catalogOf(f, tr, c)
		rep, err := Run(cat, flightsQuery(), Options{
			Strategy:     Corrective,
			PollEvery:    50,
			SwitchFactor: 0.99,
			MaxPhases:    6,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkFlightsResult(t, rep, refFlights(f, tr, c))
	}
}

func TestCorrectiveSwitchesOnMisestimation(t *testing.T) {
	// A(k, fk) ⋈ B(k): multiplicative (B has 5 distinct keys heavily
	// duplicated); A ⋈ C: selective key join. Mislead the optimizer with
	// wrong "known" cardinalities so it starts with the exploding join.
	n := 2000
	aRows := make([]types.Tuple, n)
	for i := range aRows {
		aRows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i % 5))}
	}
	bRows := make([]types.Tuple, 1200)
	for i := range bRows {
		bRows[i] = types.Tuple{types.Int(int64(i % 5))}
	}
	cRows := make([]types.Tuple, n)
	for i := range cRows {
		cRows[i] = types.Tuple{types.Int(int64(i))}
	}
	aS := types.NewSchema(types.Column{Name: "A.k", Kind: types.KindInt}, types.Column{Name: "A.fk", Kind: types.KindInt})
	bS := types.NewSchema(types.Column{Name: "B.k", Kind: types.KindInt})
	cS := types.NewSchema(types.Column{Name: "C.k", Kind: types.KindInt})
	q := &algebra.Query{
		Name: "mis",
		Relations: []algebra.RelRef{
			{Name: "A", Schema: aS}, {Name: "B", Schema: bS}, {Name: "C", Schema: cS},
		},
		Joins: []algebra.JoinPred{
			{LeftRel: "A", LeftCol: "fk", RightRel: "B", RightCol: "k"},
			{LeftRel: "A", LeftCol: "k", RightRel: "C", RightCol: "k"},
		},
		GroupBy: []string{"C.k"},
		Aggs:    []algebra.AggSpec{{Kind: algebra.AggCount, As: "n"}},
	}
	cat := catalogOf(
		source.NewRelation("A", aS, aRows),
		source.NewRelation("B", bS, bRows),
		source.NewRelation("C", cS, cRows),
	)
	rep, err := Run(cat, q, Options{
		Strategy:  Corrective,
		PollEvery: 200,
		MaxPhases: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Correctness regardless of switching.
	if len(rep.Rows) != n {
		t.Fatalf("groups = %d, want %d", len(rep.Rows), n)
	}
	for _, r := range rep.Rows {
		// Each C.k joins one A row which joins 1200/5 B rows.
		if r[1].I != 240 {
			t.Fatalf("count = %d, want 240", r[1].I)
		}
	}
	t.Logf("phases=%d switches=%d stitch=%gs reused=%d discarded=%d",
		len(rep.Phases), rep.Switches, rep.StitchTime, rep.Reused, rep.Discarded)
}

func TestCorrectiveStitchUpAccounting(t *testing.T) {
	f, tr, c := flightsData(200, 600, 400, 7)
	rep, err := Run(catalogOf(f, tr, c), flightsQuery(), Options{
		Strategy:     Corrective,
		PollEvery:    40,
		SwitchFactor: 0.999,
		MaxPhases:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Switches > 0 {
		if rep.StitchCombos == 0 {
			t.Error("switched run must evaluate stitch-up combinations")
		}
		m, n := len(flightsQuery().Relations), len(rep.Phases)
		if rep.StitchCombos != algebra.CombinationCount(m, n) {
			t.Errorf("combos = %d, want %d", rep.StitchCombos, algebra.CombinationCount(m, n))
		}
	}
}

func TestStitchReuseAblationEquivalent(t *testing.T) {
	f, tr, c := flightsData(120, 300, 250, 3)
	want := refFlights(f, tr, c)
	for _, disable := range []bool{false, true} {
		rep, err := Run(catalogOf(f.Clone(), tr.Clone(), c.Clone()), flightsQuery(), Options{
			Strategy:           Corrective,
			PollEvery:          30,
			SwitchFactor:       0.99,
			MaxPhases:          5,
			DisableStitchReuse: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkFlightsResult(t, rep, want)
		if disable && rep.Reused != 0 {
			t.Error("reuse disabled but Reused > 0")
		}
	}
}

// chain5 is a 5-relation chain r1 ⋈ r2 ⋈ r3 ⋈ r4 ⋈ r5 on k with a
// count per r1.k: 4 joins, enough to trigger plan partitioning's
// materialization point at 3. Every relation holds 100 rows over 40 keys.
func chain5() (rels []*source.Relation, q *algebra.Query) {
	return chain5Sized([5]int{100, 100, 100, 100, 100}, [5]int64{40, 40, 40, 40, 40})
}

// chain5Sized is chain5 with per-relation row counts and key domains.
func chain5Sized(n [5]int, dom [5]int64) (rels []*source.Relation, q *algebra.Query) {
	mkRel := func(name string, n int, dom int64, seed int64) (*source.Relation, *types.Schema) {
		s := types.NewSchema(
			types.Column{Name: name + ".k", Kind: types.KindInt},
			types.Column{Name: name + ".v", Kind: types.KindInt},
		)
		rng := rand.New(rand.NewSource(seed))
		rows := make([]types.Tuple, n)
		for i := range rows {
			rows[i] = types.Tuple{types.Int(rng.Int63n(dom)), types.Int(int64(i))}
		}
		return source.NewRelation(name, s, rows), s
	}
	r1, s1 := mkRel("r1", n[0], dom[0], 1)
	r2, s2 := mkRel("r2", n[1], dom[1], 2)
	r3, s3 := mkRel("r3", n[2], dom[2], 3)
	r4, s4 := mkRel("r4", n[3], dom[3], 4)
	r5, s5 := mkRel("r5", n[4], dom[4], 5)
	q = &algebra.Query{
		Name: "chain5",
		Relations: []algebra.RelRef{
			{Name: "r1", Schema: s1}, {Name: "r2", Schema: s2}, {Name: "r3", Schema: s3},
			{Name: "r4", Schema: s4}, {Name: "r5", Schema: s5},
		},
		Joins: []algebra.JoinPred{
			{LeftRel: "r1", LeftCol: "k", RightRel: "r2", RightCol: "k"},
			{LeftRel: "r2", LeftCol: "k", RightRel: "r3", RightCol: "k"},
			{LeftRel: "r3", LeftCol: "k", RightRel: "r4", RightCol: "k"},
			{LeftRel: "r4", LeftCol: "k", RightRel: "r5", RightCol: "k"},
		},
		GroupBy: []string{"r1.k"},
		Aggs:    []algebra.AggSpec{{Kind: algebra.AggCount, As: "n"}},
	}
	return []*source.Relation{r1, r2, r3, r4, r5}, q
}

func TestPlanPartitionMatchesBruteForce(t *testing.T) {
	rels, q := chain5()
	r1, r2, r3, r4, r5 := rels[0], rels[1], rels[2], rels[3], rels[4]
	// Brute force: count per key = prod of per-relation key counts.
	count := func(r *source.Relation) map[int64]int64 {
		m := map[int64]int64{}
		for _, t := range r.Rows {
			m[t[0].I]++
		}
		return m
	}
	c1, c2, c3, c4, c5 := count(r1), count(r2), count(r3), count(r4), count(r5)
	want := map[int64]int64{}
	for k, n1 := range c1 {
		if c2[k] > 0 && c3[k] > 0 && c4[k] > 0 && c5[k] > 0 {
			want[k] = n1 * c2[k] * c3[k] * c4[k] * c5[k]
		}
	}
	for _, strat := range []Strategy{Static, PlanPartition} {
		rep, err := Run(catalogOf(r1.Clone(), r2.Clone(), r3.Clone(), r4.Clone(), r5.Clone()), q, Options{Strategy: strat})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if len(rep.Rows) != len(want) {
			t.Fatalf("%v: groups = %d, want %d", strat, len(rep.Rows), len(want))
		}
		for _, r := range rep.Rows {
			if want[r[0].I] != r[1].I {
				t.Fatalf("%v: key %d count %d, want %d", strat, r[0].I, r[1].I, want[r[0].I])
			}
		}
		if strat == PlanPartition && len(rep.Phases) != 2 {
			t.Errorf("plan partitioning should have 2 stages, got %d", len(rep.Phases))
		}
	}
}

func TestPlanPartitionFewJoinsDegeneratesToStatic(t *testing.T) {
	f, tr, c := flightsData(100, 200, 150, 9)
	rep, err := Run(catalogOf(f, tr, c), flightsQuery(), Options{Strategy: PlanPartition})
	if err != nil {
		t.Fatal(err)
	}
	checkFlightsResult(t, rep, refFlights(f, tr, c))
	if len(rep.Phases) != 1 {
		t.Errorf("2-join query should not materialize, phases=%d", len(rep.Phases))
	}
}

func TestSPJQueryAllStrategies(t *testing.T) {
	f, tr, c := flightsData(80, 200, 150, 11)
	q := flightsQuery()
	q.GroupBy, q.Aggs = nil, nil
	q.Project = []string{"F.fid", "C.num"}
	// Brute-force count of join rows.
	wantCount := 0
	for _, ft := range f.Rows {
		for _, tt := range tr.Rows {
			if ft[0].I != tt[1].I {
				continue
			}
			for _, ct := range c.Rows {
				if tt[0].I == ct[0].I {
					wantCount++
				}
			}
		}
	}
	for _, strat := range []Strategy{Static, Corrective} {
		rep, err := Run(catalogOf(f.Clone(), tr.Clone(), c.Clone()), q, Options{
			Strategy: strat, PollEvery: 30, SwitchFactor: 0.99, MaxPhases: 4,
		})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if len(rep.Rows) != wantCount {
			t.Errorf("%v: rows = %d, want %d", strat, len(rep.Rows), wantCount)
		}
		if rep.Schema.Len() != 2 {
			t.Errorf("%v: projected schema = %v", strat, rep.Schema)
		}
	}
}

func TestFiltersPushedToLeaves(t *testing.T) {
	f, tr, c := flightsData(200, 400, 300, 13)
	q := flightsQuery()
	q.Filters = map[string]expr.Predicate{
		"F": expr.Eq(expr.Column("F.from"), expr.StrLit("SEA")),
	}
	// Brute force with filter.
	want := map[[2]string]int64{}
	for _, ft := range f.Rows {
		if ft[1].S != "SEA" {
			continue
		}
		for _, tt := range tr.Rows {
			if ft[0].I != tt[1].I {
				continue
			}
			for _, ct := range c.Rows {
				if tt[0].I != ct[0].I {
					continue
				}
				key := [2]string{ft[0].String(), ft[1].S}
				if v, ok := want[key]; !ok || ct[1].I > v {
					want[key] = ct[1].I
				}
			}
		}
	}
	rep, err := Run(catalogOf(f, tr, c), q, Options{Strategy: Corrective, PollEvery: 64, SwitchFactor: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	checkFlightsResult(t, rep, want)
}

func TestPreAggModesEquivalent(t *testing.T) {
	f, tr, c := flightsData(150, 400, 300, 17)
	q := flightsQuery()
	// sum + avg to exercise partial-state decomposition end to end.
	q.Aggs = []algebra.AggSpec{
		{Kind: algebra.AggMax, Arg: expr.Column("C.num"), As: "mx"},
		{Kind: algebra.AggSum, Arg: expr.Column("C.num"), As: "sm"},
		{Kind: algebra.AggAvg, Arg: expr.Column("C.num"), As: "av"},
		{Kind: algebra.AggCount, As: "ct"},
	}
	var base []types.Tuple
	for i, mode := range []opt.PreAggMode{opt.PreAggNone, opt.PreAggWindowed, opt.PreAggTraditional} {
		rep, err := Run(catalogOf(f.Clone(), tr.Clone(), c.Clone()), q, Options{Strategy: Static, PreAgg: mode})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if i == 0 {
			base = rep.Rows
			continue
		}
		if len(rep.Rows) != len(base) {
			t.Fatalf("mode %d: %d rows vs %d", mode, len(rep.Rows), len(base))
		}
		for r := range base {
			for col := range base[r] {
				a, b := base[r][col], rep.Rows[r][col]
				if a.K == types.KindFloat || b.K == types.KindFloat {
					if math.Abs(a.AsFloat()-b.AsFloat()) > 1e-6 {
						t.Fatalf("mode %d: row %d col %d: %v vs %v", mode, r, col, a, b)
					}
				} else if types.Compare(a, b) != 0 {
					t.Fatalf("mode %d: row %d col %d: %v vs %v", mode, r, col, a, b)
				}
			}
		}
	}
}

func TestInstrumentationCollects(t *testing.T) {
	f, tr, c := flightsData(100, 200, 150, 19)
	rep, err := Run(catalogOf(f, tr, c), flightsQuery(), Options{Strategy: Static, Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Histograms) != 3 || len(rep.Orders) != 3 {
		t.Fatalf("instrumentation missing: %d hists %d orders", len(rep.Histograms), len(rep.Orders))
	}
	if rep.Histograms["F"].Count() != 100 {
		t.Error("histogram did not see all tuples")
	}
	// F.fid is sequential: order detector should see it sorted.
	if rep.Orders["F"].SortednessAsc() != 1 {
		t.Error("order detector wrong on sorted key")
	}
}

func TestRunValidations(t *testing.T) {
	f, tr, c := flightsData(10, 10, 10, 23)
	q := flightsQuery()
	// Missing source.
	if _, err := Run(catalogOf(f, tr), q, Options{}); err == nil {
		t.Error("missing catalog source should error")
	}
	// Invalid query.
	bad := flightsQuery()
	bad.Joins = bad.Joins[:1]
	if _, err := Run(catalogOf(f, tr, c), bad, Options{}); err == nil {
		t.Error("invalid query should error")
	}
	if Static.String() != "static" || Corrective.String() != "corrective" || PlanPartition.String() != "plan-partitioning" {
		t.Error("strategy names wrong")
	}
}

func TestWirelessScheduleRuns(t *testing.T) {
	f, tr, c := flightsData(200, 400, 300, 29)
	rels := map[string]*source.Relation{"F": f, "T": tr, "C": c}
	cat := NewCatalog(rels, func(r *source.Relation) source.Schedule {
		return source.NewBursty(r.Len(), 5000, 200, 0.05, 99)
	})
	rep, err := Run(cat, flightsQuery(), Options{Strategy: Corrective, PollEvery: 100, SwitchFactor: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	checkFlightsResult(t, rep, refFlights(f, tr, c))
	if rep.VirtualSeconds <= rep.CPUSeconds {
		t.Error("bursty delivery should make response time exceed CPU time")
	}
}

var _ = exec.Discard
