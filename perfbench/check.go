package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"github.com/tukwila/adp/internal/server"
	"github.com/tukwila/adp/internal/types"
)

// relTol is the relative tolerance on float columns of aggregate answers:
// the order in which partial sums are folded varies with strategy and
// partitioning, which moves a sum by a few ULPs.
const relTol = 1e-9

// compareRows orders tuples column by column with types.Compare, a
// canonical order for comparing answers as multisets.
func compareRows(a, b types.Tuple) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := types.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// sortedRows returns a sorted copy of rows.
func sortedRows(rows []types.Tuple) []types.Tuple {
	out := append([]types.Tuple(nil), rows...)
	sort.Slice(out, func(i, j int) bool { return compareRows(out[i], out[j]) < 0 })
	return out
}

// closeFloat reports whether two floats agree within relTol.
func closeFloat(a, b float64) bool {
	d := math.Abs(a - b)
	return d == 0 || d <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// sameAnswer compares an answer with its reference as multisets: float
// columns within relTol, every other column exactly. want must already
// be sorted. Aggregate answers have one row per group, so a few ULPs of
// difference cannot reorder rows.
func sameAnswer(got, want []types.Tuple) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	got = sortedRows(got)
	for i := range got {
		g, w := got[i], want[i]
		if len(g) != len(w) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(g), len(w))
		}
		for c := range g {
			if g[c].K == types.KindFloat && w[c].K == types.KindFloat {
				if !closeFloat(g[c].F, w[c].F) {
					return fmt.Errorf("row %d column %d: %v, want %v", i, c, g[c], w[c])
				}
				continue
			}
			if !types.StrictEqual(g[c], w[c]) {
				return fmt.Errorf("row %d column %d: %v, want %v", i, c, g[c], w[c])
			}
		}
	}
	return nil
}

// rowFrames encodes rows as the server's NDJSON row frames, sorted: the
// byte-exact multiset a streamed select-project-join answer must equal.
func rowFrames(rows []types.Tuple) [][]byte {
	out := make([][]byte, len(rows))
	for i, t := range rows {
		out[i] = server.AppendRowFrame(nil, t)
	}
	sortFrames(out)
	return out
}

func sortFrames(fs [][]byte) {
	sort.Slice(fs, func(i, j int) bool { return bytes.Compare(fs[i], fs[j]) < 0 })
}

// sameFrames compares streamed row frames with the sorted reference
// frames as multisets of byte strings; got is sorted in place.
func sameFrames(got, want [][]byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d row frames, want %d", len(got), len(want))
	}
	sortFrames(got)
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("row frame %q, want %q", got[i], want[i])
		}
	}
	return nil
}

// decodeRowFrame parses one NDJSON row frame back into a tuple with the
// given column kinds.
func decodeRowFrame(frame []byte, kinds []types.Kind) (types.Tuple, error) {
	var f struct {
		Values []json.RawMessage `json:"values"`
	}
	if err := json.Unmarshal(frame, &f); err != nil {
		return nil, err
	}
	if len(f.Values) != len(kinds) {
		return nil, fmt.Errorf("row frame has %d values, want %d", len(f.Values), len(kinds))
	}
	t := make(types.Tuple, len(kinds))
	for i, raw := range f.Values {
		if string(raw) == "null" {
			continue
		}
		switch kinds[i] {
		case types.KindInt:
			v, err := strconv.ParseInt(string(raw), 10, 64)
			if err != nil {
				return nil, err
			}
			t[i] = types.Int(v)
		case types.KindFloat:
			v, err := strconv.ParseFloat(string(raw), 64)
			if err != nil {
				return nil, err
			}
			t[i] = types.Float(v)
		default:
			var s string
			if err := json.Unmarshal(raw, &s); err != nil {
				return nil, err
			}
			t[i] = types.Str(s)
		}
	}
	return t, nil
}
