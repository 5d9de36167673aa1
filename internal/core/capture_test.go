package core

import (
	"context"
	"fmt"
	"testing"

	"github.com/tukwila/adp/internal/algebra"
	"github.com/tukwila/adp/internal/exec"
	"github.com/tukwila/adp/internal/source"
)

// chain5Catalog gives each run fresh providers over the chain5 data.
func chain5Catalog(rels []*source.Relation) *Catalog {
	clones := make([]*source.Relation, len(rels))
	for i, r := range rels {
		clones[i] = r.Clone()
	}
	return catalogOf(clones...)
}

// executeCapture runs q's initial pass through the RunStream machinery
// and returns the executor, whose phase records hold what was captured.
func executeCapture(t *testing.T, cat *Catalog, q *algebra.Query, o Options) *executor {
	t.Helper()
	ex, _, err := prepareRun(context.Background(), cat, q, o, RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.execute(); err != nil {
		t.Fatal(err)
	}
	return ex
}

// retained sums the base-partition and intermediate tuples a run's phase
// records hold.
func retained(ex *executor) (base, interm int) {
	for _, rec := range ex.phases {
		for _, l := range rec.BaseParts {
			base += l.Len()
		}
		for _, l := range rec.Interm {
			interm += l.Len()
		}
	}
	return base, interm
}

// TestCaptureOnlyWhereRead is the path pin for stitch-up state capture:
// base partitions and join outputs are kept only where a later reader
// exists. The goldens pin rows, Reused and Discarded; this test proves
// the pruned path is the one that ran.
func TestCaptureOnlyWhereRead(t *testing.T) {
	rels, q := chain5()
	// Two large leading relations make the estimate-free initial plan
	// bad enough that the corrective run switches at P=1 and P=4.
	swRels, swQ := chain5Sized([5]int{1000, 1000, 100, 100, 100}, [5]int64{40, 40, 40, 40, 40})
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("P%d", parts), func(t *testing.T) {
			for _, strat := range []Strategy{Static, PlanPartition} {
				ex := executeCapture(t, chain5Catalog(rels), q, Options{Strategy: strat, Partitions: parts})
				if base, interm := retained(ex); base != 0 || interm != 0 {
					t.Errorf("%v retained %d base and %d intermediate tuples, want none", strat, base, interm)
				}
			}
			// PlanPartition at or below the breakpoint runs one ordinary
			// phase, which must not capture either.
			ex := executeCapture(t, chain5Catalog(rels), q, Options{Strategy: PlanPartition, Partitions: parts, MaterializeAfterJoins: 4})
			if len(ex.phases) != 1 {
				t.Fatalf("degenerate plan partitioning ran %d phases, want 1", len(ex.phases))
			}
			if base, interm := retained(ex); base != 0 || interm != 0 {
				t.Errorf("degenerate PlanPartition retained %d base and %d intermediate tuples", base, interm)
			}

			ex = executeCapture(t, chain5Catalog(swRels), swQ, Options{
				Strategy: Corrective, Partitions: parts, PollEvery: 30, SwitchFactor: 0.99, MaxPhases: 4,
			})
			if ex.rep.Switches == 0 || ex.rep.Reused == 0 {
				t.Fatalf("corrective run switched %d times and reused %d tuples; the fixture no longer exercises stitch-up reuse",
					ex.rep.Switches, ex.rep.Reused)
			}
			for _, rec := range ex.phases {
				if len(rec.BaseParts) != len(swQ.Relations) {
					t.Errorf("phase %d captured %d base partitions, want %d", rec.ID, len(rec.BaseParts), len(swQ.Relations))
				}
				joins := algebra.CollectJoins(rec.Plan)
				rootKey := joins[len(joins)-1].Key()
				if _, ok := rec.Interm[rootKey]; ok {
					t.Errorf("phase %d buffered its root join %s", rec.ID, rootKey)
				}
				for _, j := range joins[:len(joins)-1] {
					if _, ok := rec.Interm[j.Key()]; !ok {
						t.Errorf("phase %d did not buffer non-root join %s", rec.ID, j.Key())
					}
				}
				if len(rec.Interm) != len(joins)-1 {
					t.Errorf("phase %d buffered %d joins, want %d", rec.ID, len(rec.Interm), len(joins)-1)
				}
			}
			var passed float64
			for _, rel := range swQ.Relations {
				passed += ex.passed[rel.Name]
			}
			if base, _ := retained(ex); float64(base) != passed {
				t.Errorf("corrective captured %d base tuples, leaves passed %v", base, passed)
			}

			// Maintenance under Static still captures: its logs seed from
			// the initial run's base partitions.
			cat := chain5Catalog(rels)
			ex, _, err := prepareRun(context.Background(), cat, q, Options{Strategy: Static, Partitions: parts}, RunHooks{})
			if err != nil {
				t.Fatal(err)
			}
			mt, err := newMaintainer(ex, MaintOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := ex.execute(); err != nil {
				t.Fatal(err)
			}
			for _, rel := range q.Relations {
				part := ex.phases[0].BaseParts[rel.Name]
				if part == nil || float64(part.Len()) != ex.passed[rel.Name] {
					t.Fatalf("static maintenance did not capture %s", rel.Name)
				}
			}
			if err := mt.run(); err != nil {
				t.Fatal(err)
			}
			for _, rel := range q.Relations {
				if got := len(mt.logs[rel.Name].rows); float64(got) != ex.passed[rel.Name] {
					t.Errorf("%s log seeded %d rows, want %v", rel.Name, got, ex.passed[rel.Name])
				}
			}
		})
	}
}

// TestLowerKeepIntermBuffersNonRootJoins pins the tee placement on a
// lowered tree: with keepInterm every join but the root buffers exactly
// its counted output; without it no join buffers.
func TestLowerKeepIntermBuffersNonRootJoins(t *testing.T) {
	rels, q := chain5()
	ex := executeCapture(t, chain5Catalog(rels), q, Options{Strategy: Static})
	root := ex.phases[0].Plan
	for _, keep := range []bool{false, true} {
		tree, err := Lower(exec.NewContext(), root, exec.Discard, keep)
		if err != nil {
			t.Fatal(err)
		}
		var leaves []*exec.Leaf
		for _, r := range rels {
			leaves = append(leaves, &exec.Leaf{
				Provider:  source.NewProvider(r.Clone(), nil),
				PushBatch: tree.Entry[r.Name],
			})
		}
		exec.NewDriver(tree.ctx, leaves...).Run(0, nil)
		tree.Finish()
		for i, j := range tree.Joins {
			isRoot := i == len(tree.Joins)-1
			switch {
			case !keep || isRoot:
				if j.ResultBuf != nil {
					t.Errorf("keep=%v root=%v: join %s buffered", keep, isRoot, j.Key)
				}
			case j.ResultBuf == nil:
				t.Errorf("non-root join %s kept no buffer", j.Key)
			case int64(j.ResultBuf.Len()) != j.Node.Counters().Out:
				t.Errorf("join %s buffered %d of %d outputs", j.Key, j.ResultBuf.Len(), j.Node.Counters().Out)
			}
		}
	}
}
