package core

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/datagen"
	"github.com/tukwila/adp/internal/opt"
	"github.com/tukwila/adp/internal/source"
	"github.com/tukwila/adp/internal/types"
	"github.com/tukwila/adp/internal/workload"
)

// Execution goldens. Every strategy × partition width × fixture query
// renders its observable outcome as text, and the rendering must match the
// committed file under testdata/golden byte for byte. Serial runs pin
// everything: rows in delivery order, Report counters, phase records,
// the event sequence, and the virtual and CPU clocks as %.17g. Partitioned
// runs pin the row multiset and the counters; their clocks are
// scheduling-dependent diagnostics (exec.ParallelDriver.FoldClocks), so
// they are checked against the bounds that fold guarantees instead.

// goldenFlights is the flights fixture every golden flights case runs on.
func goldenFlights() (f, tr, c *source.Relation) { return flightsData(80, 200, 150, 11) }

var (
	goldenTPCHOnce sync.Once
	goldenTPCH     *datagen.Dataset
)

// goldenTPCHData is the skewed TPC-H database the workload cases share
// (relations are immutable; each run gets fresh providers).
func goldenTPCHData() *datagen.Dataset {
	goldenTPCHOnce.Do(func() {
		goldenTPCH = datagen.Generate(datagen.Config{ScaleFactor: 0.005, Seed: 42, Skewed: true, Z: datagen.DefaultZ})
	})
	return goldenTPCH
}

// goldenQuery is one fixture query with its catalog factory and the
// monitor settings that make corrective runs switch plans.
type goldenQuery struct {
	name    string
	q       func() *algebra.Query
	catalog func() *Catalog
	opts    Options
}

func goldenQueries() []goldenQuery {
	flights := func() *Catalog { return catalogOf(goldenFlights()) }
	tpch := func() *Catalog { return NewCatalog(goldenTPCHData().Relations(), nil) }
	fo := Options{PollEvery: 30, SwitchFactor: 0.99, MaxPhases: 4}
	to := Options{PollEvery: 256, SwitchFactor: 0.99, MaxPhases: 4}
	return []goldenQuery{
		{"flights-spj", spjFlightsQuery, flights, fo},
		{"flights-agg", flightsQuery, flights, fo},
		{"Q3A", workload.Q3A, tpch, to},
		{"Q10", workload.Q10, tpch, to},
		{"Q10A", workload.Q10A, tpch, to},
		{"Q5", workload.Q5, tpch, to},
	}
}

// goldenValue renders a value with its kind, exactly: Int(1), Float(1)
// and Str("1") stay distinct, and floats print as %.17g.
func goldenValue(v types.Value) string {
	switch v.K {
	case types.KindNull:
		return "null"
	case types.KindInt:
		return "i:" + strconv.FormatInt(v.I, 10)
	case types.KindFloat:
		return "f:" + strconv.FormatFloat(v.F, 'g', 17, 64)
	case types.KindString:
		return "s:" + strconv.Quote(v.S)
	default:
		return fmt.Sprintf("?%d", v.K)
	}
}

func goldenRow(t types.Tuple) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = goldenValue(v)
	}
	return strings.Join(parts, " ")
}

// goldenField renders an event field: floats as %.17g, float slices
// element-wise, strings quoted, everything else with %v.
func goldenField(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Float64:
		return strconv.FormatFloat(v.Float(), 'g', 17, 64)
	case reflect.String:
		return strconv.Quote(v.String())
	case reflect.Slice:
		parts := make([]string, v.Len())
		for i := range parts {
			parts[i] = goldenField(v.Index(i))
		}
		return "[" + strings.Join(parts, " ") + "]"
	default:
		return fmt.Sprintf("%v", v.Interface())
	}
}

func goldenEvent(ev Event) string {
	v := reflect.ValueOf(ev)
	var sb strings.Builder
	sb.WriteString(v.Type().Name())
	for i := 0; i < v.NumField(); i++ {
		fmt.Fprintf(&sb, " %s=%s", v.Type().Field(i).Name, goldenField(v.Field(i)))
	}
	return sb.String()
}

func g17(f float64) string { return strconv.FormatFloat(f, 'g', 17, 64) }

// renderGolden renders one run. Serial runs (parts <= 1) include every
// clock and the event sequence; partitioned runs render the clocks on a
// single "clocks" line (checked by goldenClocksWithin, not byte-compared)
// and the rows as a sorted multiset.
func renderGolden(rep *Report, events []Event, parts int) string {
	var sb strings.Builder
	serial := parts <= 1
	fmt.Fprintf(&sb, "query %s strategy %v partitions %d\n", rep.Query, rep.Strategy, rep.Partitions)
	fmt.Fprintf(&sb, "counters switches=%d stitch_combos=%d reused=%d discarded=%d partial=%v\n",
		rep.Switches, rep.StitchCombos, rep.Reused, rep.Discarded, rep.Partial)
	if rep.Updates != nil || rep.Maintained != nil {
		fmt.Fprintf(&sb, "maintenance updates=%d maintained=%d delta_rows=%d delta_clamped=%d maint_switches=%d\n",
			len(rep.Updates), len(rep.Maintained), rep.DeltaRows, rep.DeltaClamped, rep.MaintSwitches)
	}
	fmt.Fprintf(&sb, "clocks virtual=%s cpu=%s stitch=%s\n", g17(rep.VirtualSeconds), g17(rep.CPUSeconds), g17(rep.StitchTime))
	for i, ph := range rep.Phases {
		if serial {
			fmt.Fprintf(&sb, "phase %d delivered=%d seconds=%s partition_seconds=%s plan=%s\n",
				i, ph.Delivered, g17(ph.Seconds), goldenField(reflect.ValueOf(ph.PartitionSeconds)), ph.Plan)
		} else {
			fmt.Fprintf(&sb, "phase %d delivered=%d plan=%s\n", i, ph.Delivered, ph.Plan)
		}
	}
	if serial {
		for _, ev := range events {
			fmt.Fprintf(&sb, "event %s\n", goldenEvent(ev))
		}
	}
	rows := make([]string, len(rep.Rows))
	for i, r := range rep.Rows {
		rows[i] = goldenRow(r)
	}
	if !serial {
		sort.Strings(rows)
	}
	fmt.Fprintf(&sb, "rows %d\n", len(rows))
	for _, r := range rows {
		fmt.Fprintf(&sb, "row %s\n", r)
	}
	for _, u := range rep.Updates {
		fmt.Fprintf(&sb, "update %+d %s\n", u.Sign, goldenRow(u.Row))
	}
	for _, r := range rep.Maintained {
		fmt.Fprintf(&sb, "maintained %s\n", goldenRow(r))
	}
	return sb.String()
}

// goldenClockLine parses a "clocks" line into its three readings.
func goldenClockLine(t *testing.T, line string) (virtual, cpu, stitch float64) {
	t.Helper()
	if _, err := fmt.Sscanf(line, "clocks virtual=%g cpu=%g stitch=%g", &virtual, &cpu, &stitch); err != nil {
		t.Fatalf("bad clocks line %q: %v", line, err)
	}
	return
}

// relClose reports |a-b| <= tol·max(|a|,|b|).
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// goldenClocksWithin checks a partitioned run's clocks against the golden
// ones under the FoldClocks contract. CPU is the sum of every clock's
// charges — the same charges in a scheduling-dependent order — so it
// matches up to float summation order, as does stitch-up time (serial
// work after the fold). The virtual clock is the makespan: no clock reads
// below its own charged work and, with every source available up front,
// none runs ahead of the total work charged, so the driver plus P
// partition clocks bound it to [cpu/(P+1), cpu].
func goldenClocksWithin(t *testing.T, gotLine, wantLine string, parts int) {
	t.Helper()
	gv, gc, gs := goldenClockLine(t, gotLine)
	_, wc, ws := goldenClockLine(t, wantLine)
	const tol = 1e-9
	if !relClose(gc, wc, tol) {
		t.Errorf("cpu = %.17g, golden %.17g", gc, wc)
	}
	if !relClose(gs, ws, tol) {
		t.Errorf("stitch = %.17g, golden %.17g", gs, ws)
	}
	if gv <= 0 || gv > gc*(1+tol) || gv < gc/float64(parts+1)*(1-tol) {
		t.Errorf("virtual = %.17g outside the fold bounds [cpu/%d, cpu] for cpu %.17g", gv, parts+1, gc)
	}
}

// goldenRowsClose compares two "row" lines of a partitioned run: ints and
// strings exactly, floats up to summation order (partition-partial
// aggregates fold in a scheduling-dependent order).
func goldenRowsClose(got, want string) bool {
	gf, wf := strings.Fields(got), strings.Fields(want)
	if len(gf) != len(wf) {
		return false
	}
	for i := range gf {
		if gf[i] == wf[i] {
			continue
		}
		if !strings.HasPrefix(gf[i], "f:") || !strings.HasPrefix(wf[i], "f:") {
			return false
		}
		g, gerr := strconv.ParseFloat(gf[i][2:], 64)
		w, werr := strconv.ParseFloat(wf[i][2:], 64)
		if gerr != nil || werr != nil || !relClose(g, w, 1e-9) {
			return false
		}
	}
	return true
}

// compareGolden checks a rendering against the golden file.
func compareGolden(t *testing.T, path, got string, parts int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d lines, golden %d", path, len(gl), len(wl))
	}
	for i := range gl {
		g, w := gl[i], wl[i]
		if g == w {
			continue
		}
		if parts > 1 {
			if strings.HasPrefix(g, "clocks ") && strings.HasPrefix(w, "clocks ") {
				goldenClocksWithin(t, g, w, parts)
				continue
			}
			if strings.HasPrefix(g, "row ") && strings.HasPrefix(w, "row ") && goldenRowsClose(g, w) {
				continue
			}
		}
		t.Fatalf("%s diverges from the golden at line %d:\n got %s\nwant %s", path, i+1, g, w)
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".golden")
}

// goldenPreAggs are the pre-aggregation modes the aggregate workload
// queries are pinned under (Figure 6), by golden-file name.
var goldenPreAggs = []struct {
	name string
	mode opt.PreAggMode
}{
	{"windowed", opt.PreAggWindowed},
	{"traditional", opt.PreAggTraditional},
}

// goldenRun executes one golden case and hands its rendering to check.
func goldenRun(t *testing.T, name string, gq goldenQuery, o Options, check func(t *testing.T, name, got string, parts int)) {
	t.Run(name, func(t *testing.T) {
		var events []Event
		rep, err := RunStream(context.Background(), gq.catalog(), gq.q(), o, RunHooks{
			Emit: func(ev Event) { events = append(events, ev) },
		})
		if err != nil {
			t.Fatal(err)
		}
		check(t, name, renderGolden(rep, events, o.Partitions), o.Partitions)
	})
}

// goldenRuns executes every golden case and hands its rendering to check.
func goldenRuns(t *testing.T, check func(t *testing.T, name, got string, parts int)) {
	for _, gq := range goldenQueries() {
		for _, strat := range []Strategy{Static, Corrective, PlanPartition} {
			for _, parts := range []int{1, 4} {
				o := gq.opts
				o.Strategy, o.Partitions = strat, parts
				goldenRun(t, fmt.Sprintf("%s-%v-P%d", gq.name, strat, parts), gq, o, check)
			}
		}
		if gq.name != "Q3A" && gq.name != "Q10A" {
			continue
		}
		for _, pa := range goldenPreAggs {
			for _, strat := range []Strategy{Static, Corrective} {
				for _, parts := range []int{1, 4} {
					o := gq.opts
					o.Strategy, o.Partitions, o.PreAgg = strat, parts, pa.mode
					goldenRun(t, fmt.Sprintf("%s-%s-%v-P%d", gq.name, pa.name, strat, parts), gq, o, check)
				}
			}
		}
	}
	t.Run("standing-flights-Corrective-P1", func(t *testing.T) {
		f, tr, c := goldenFlights()
		df, dt, dc := flightsDeltas(f, tr, c, 43)
		cat := catalogOf(f, tr, c)
		m := MaintOptions{Deltas: maintDeltaProviders(cat, map[string][]source.Delta{
			"F": df, "T": dt, "C": dc,
		}), FlushEvery: 50}
		var events []Event
		rep, err := RunMaintenance(context.Background(), cat, maintFlightsQuery(),
			Options{Strategy: Corrective, PollEvery: 30, SwitchFactor: 0.99, MaxPhases: 4}, m,
			RunHooks{Emit: func(ev Event) { events = append(events, ev) }})
		if err != nil {
			t.Fatal(err)
		}
		check(t, "standing-flights-Corrective-P1", renderGolden(rep, events, 1), 1)
	})
}

// TestExecutionGoldens pins every strategy × P∈{1,4} × fixture query,
// the aggregate workload queries under windowed and traditional
// pre-aggregation, and one standing-query fold to the committed goldens.
func TestExecutionGoldens(t *testing.T) {
	goldenRuns(t, func(t *testing.T, name, got string, parts int) {
		compareGolden(t, goldenPath(name), got, parts)
	})
}
