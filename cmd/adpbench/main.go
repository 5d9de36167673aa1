// Command adpbench regenerates the paper's tables and figures.
//
// Usage:
//
//	adpbench -experiment all -sf 0.01
//	adpbench -experiment figure2
//	adpbench -experiment figure5 -sf 0.02
//
// Experiments: figure2, table1, figure3, table2, section45, figure5,
// table3, figure6, ablations, all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/tukwila/adp/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run (figure2|table1|figure3|table2|section45|figure5|table3|figure6|ablations|all)")
		sf         = flag.Float64("sf", 0.01, "TPC-H scale factor (paper: 0.1)")
		seed       = flag.Int64("seed", 42, "generator seed")
		poll       = flag.Int("poll", 2048, "corrective polling interval (tuples)")
		partitions = flag.Int("partitions", 1, "partition-parallel width for phase execution (<=1 = serial)")
	)
	flag.Parse()
	cfg := bench.Config{SF: *sf, Seed: *seed, PollEvery: *poll, Partitions: *partitions}
	if err := run(os.Stdout, *experiment, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "adpbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, experiment string, cfg bench.Config) error {
	want := func(names ...string) bool {
		if experiment == "all" {
			return true
		}
		for _, n := range names {
			if experiment == n {
				return true
			}
		}
		return false
	}
	matched := false
	if want("figure2", "table1") {
		matched = true
		cells, err := bench.Comparison(cfg, false)
		if err != nil {
			return err
		}
		if want("figure2") {
			fmt.Fprintln(w, bench.FormatComparison("Figure 2: static vs corrective vs plan partitioning (local data, virtual seconds)", cells))
		}
		if want("table1") {
			fmt.Fprintln(w, bench.FormatPhaseTable("Table 1: corrective breakdown (local data)", cells))
		}
	}
	if want("figure3", "table2") {
		matched = true
		cells, err := bench.Comparison(cfg, true)
		if err != nil {
			return err
		}
		if want("figure3") {
			fmt.Fprintln(w, bench.FormatComparison("Figure 3: the same comparison over a bursty wireless link", cells))
		}
		if want("table2") {
			fmt.Fprintln(w, bench.FormatPhaseTable("Table 2: corrective breakdown (wireless)", cells))
		}
	}
	if want("section45") {
		matched = true
		res, err := bench.Section45(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Format())
	}
	if want("figure5", "table3") {
		matched = true
		cells, err := bench.Figure5(cfg)
		if err != nil {
			return err
		}
		if want("figure5") {
			fmt.Fprintln(w, bench.FormatFigure5(cells))
		}
		if want("table3") {
			fmt.Fprintln(w, bench.FormatTable3(cells))
		}
	}
	if want("figure6") {
		matched = true
		cells, err := bench.Figure6(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, bench.FormatFigure6(cells))
	}
	if want("ablations") {
		matched = true
		rows, err := bench.Ablations(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, bench.FormatAblations(rows))
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	return nil
}
