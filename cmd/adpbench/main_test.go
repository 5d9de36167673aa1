package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"github.com/tukwila/adp/internal/bench"
)

// hostFields matches the fields of the experiment tables that measure the
// host rather than the engine: real wall-clock time, the speedup derived
// from it, and the GOMAXPROCS the partition sweep ran under.
var hostFields = regexp.MustCompile(`\s*(wall|speedup|gomaxprocs)=\S+`)

// removedSettings matches golden rows of ablation settings that no
// longer exist: the batch-layout sweeps compared delivery layouts, and
// with row batches the only layout left they were removed. Every other
// golden row must still be reproduced exactly.
var removedSettings = regexp.MustCompile(`^batch-layout(-wide)? `)

// withoutRemovedSettings drops the rows of removed ablation settings.
func withoutRemovedSettings(s string) string {
	lines := strings.Split(s, "\n")
	kept := lines[:0]
	for _, l := range lines {
		if !removedSettings.MatchString(l) {
			kept = append(kept, l)
		}
	}
	return strings.Join(kept, "\n")
}

// stripHost removes host-dependent fields, leaving every virtual-clock
// reading, counter, and row count in place.
func stripHost(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = hostFields.ReplaceAllString(l, "")
	}
	return strings.Join(lines, "\n")
}

// TestExperimentTablesGolden pins `adpbench -experiment all -sf 0.01`:
// every paper table and ablation runs on the virtual clock, so after the
// host fields are stripped the output is deterministic and must match the
// committed golden byte for byte (less the rows of removed settings).
func TestExperimentTablesGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "all", bench.Config{SF: 0.01, Seed: 42, PollEvery: 2048, Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/all_sf0.01.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, wantS := stripHost(buf.String()), withoutRemovedSettings(string(want))
	if got == wantS {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(wantS, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("experiment tables diverge from the golden at line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}
