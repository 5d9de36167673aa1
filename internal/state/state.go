// Package state implements Tukwila's state structures (paper §3.1–3.2):
// the storage components factored out of join and aggregation operators so
// that intermediate results can be shared and reused across the multiple
// plans of an adaptively partitioned query. Tukwila's five structures are
// all provided — list, sorted list, hash table, hash over sorted data
// (binary search within buckets), and B+ tree — together with the state
// structure registry that records (plan ID, expression, cardinality) for
// stitch-up planning, and a memory manager that simulates paging structures
// to disk in most-complex-expression-first order.
package state

import (
	"sort"

	"github.com/tukwila/adp/internal/types"
)

// Properties advertises what a structure supports; the optimizer and the
// stitch-up join consult these instead of depending on concrete types
// ("they advertise certain properties (e.g., supports key-based access,
// requires sorted data)", §3.1).
type Properties struct {
	KeyAccess     bool // supports key-based probing
	Sorted        bool // iteration yields key order
	RequiresSort  bool // input must arrive in key order
	SupportsRange bool // supports range scans
}

// Structure is the common interface of all state structures. Tuples are
// stored in the physical layout of the producing plan; consumers with a
// different layout read through a types.Adapter.
type Structure interface {
	// Insert adds one tuple.
	Insert(t types.Tuple)
	// Len returns the number of stored tuples.
	Len() int
	// Scan iterates all tuples; return false from fn to stop early.
	Scan(fn func(t types.Tuple) bool)
	// Properties reports the structure's advertised capabilities.
	Properties() Properties
	// Schema returns the layout of stored tuples.
	Schema() *types.Schema
}

// Keyed is a structure supporting key-based access on its build key.
type Keyed interface {
	Structure
	// KeyCols returns the column positions forming the access key.
	KeyCols() []int
	// Probe visits all tuples whose key equals the given key values.
	Probe(key []types.Value, fn func(t types.Tuple) bool)
}

// HashedProber is the allocation-free probe fast path advertised by
// hash-based structures: the caller hashes the key once (typically shared
// with the build-side insert) and probes without any per-call allocation.
// Operators type-assert for it and fall back to Keyed.Probe otherwise.
type HashedProber interface {
	Keyed
	// ProbeHashed visits tuples matching key, whose hash the caller
	// precomputed with Tuple.HashKey over the key's positions.
	ProbeHashed(hash uint64, key types.Tuple, fn func(t types.Tuple) bool)
}

// List is the simplest structure: an insertion-ordered tuple buffer with
// no key access (nested-loops inners, stitch-up capture). It is
// append-only and segmented: tuples live in segments that are never
// reallocated, so growth copies no tuple and leaves no regrowth garbage
// behind. A new segment holds as many tuples as the list already does,
// between minListSegment and maxListSegment, so a short list wastes at
// most its own length in spare capacity and a long one at most one
// segment.
type List struct {
	schema *types.Schema
	segs   [][]types.Tuple
	n      int
}

const (
	minListSegment = 32
	maxListSegment = 1024
)

// NewList creates an empty list over the given layout.
func NewList(schema *types.Schema) *List { return &List{schema: schema} }

// tail returns the segment with spare capacity, adding one when the last
// is full.
func (l *List) tail() *[]types.Tuple {
	if k := len(l.segs); k > 0 && len(l.segs[k-1]) < cap(l.segs[k-1]) {
		return &l.segs[k-1]
	}
	l.segs = append(l.segs, make([]types.Tuple, 0, min(max(l.n, minListSegment), maxListSegment)))
	return &l.segs[len(l.segs)-1]
}

// Insert implements Structure.
func (l *List) Insert(t types.Tuple) {
	seg := l.tail()
	*seg = append(*seg, t)
	l.n++
}

// InsertBatch bulk-appends a batch of tuples — the vectorized counterpart
// of Insert used by batched sinks (leaf partition capture, join-result
// tees). Only the tuples are retained, never the batch slice itself.
//
//adp:hotpath gated by BenchmarkListInsertBatch (scripts/check_allocs.sh)
func (l *List) InsertBatch(ts []types.Tuple) {
	for len(ts) > 0 {
		seg := l.tail()
		k := copy((*seg)[len(*seg):cap(*seg)], ts)
		*seg = (*seg)[:len(*seg)+k]
		l.n += k
		ts = ts[k:]
	}
}

// AppendList appends o's tuples to l by sharing o's segments; no tuple is
// copied. The shared segments are clipped to their length, so later
// appends to either list never write into the other's storage.
func (l *List) AppendList(o *List) {
	for _, seg := range o.segs {
		if len(seg) > 0 {
			l.segs = append(l.segs, seg[:len(seg):len(seg)])
		}
	}
	l.n += o.n
}

// Len implements Structure.
func (l *List) Len() int { return l.n }

// Scan implements Structure.
func (l *List) Scan(fn func(types.Tuple) bool) {
	for _, seg := range l.segs {
		for _, t := range seg {
			if !fn(t) {
				return
			}
		}
	}
}

// Properties implements Structure.
func (l *List) Properties() Properties { return Properties{} }

// Schema implements Structure.
func (l *List) Schema() *types.Schema { return l.schema }

// Flatten returns the tuples as one slice, for read-only use by consumers
// that need a flat []Tuple. A list held in one segment is returned without
// copying; a longer one is copied once into an exactly sized slice.
func (l *List) Flatten() []types.Tuple {
	switch len(l.segs) {
	case 0:
		return nil
	case 1:
		return l.segs[0][:l.n:l.n]
	}
	out := make([]types.Tuple, 0, l.n)
	for _, seg := range l.segs {
		out = append(out, seg...)
	}
	return out
}

// SortedList keeps tuples ordered by a key, supporting binary-search
// probes and ordered scans. Inserts of already-ordered input are O(1)
// appends (the common data-integration case of a sorted source); an
// out-of-order insert falls back to binary insertion.
type SortedList struct {
	schema  *types.Schema
	keyCols []int
	rows    []types.Tuple
}

// NewSortedList creates an empty sorted list keyed on keyCols.
func NewSortedList(schema *types.Schema, keyCols []int) *SortedList {
	return &SortedList{schema: schema, keyCols: keyCols}
}

// Insert implements Structure, maintaining order.
func (s *SortedList) Insert(t types.Tuple) {
	n := len(s.rows)
	if n == 0 || types.CompareKey(s.rows[n-1], s.keyCols, t, s.keyCols) <= 0 {
		s.rows = append(s.rows, t)
		return
	}
	i := sort.Search(n, func(i int) bool {
		return types.CompareKey(s.rows[i], s.keyCols, t, s.keyCols) > 0
	})
	s.rows = append(s.rows, nil)
	copy(s.rows[i+1:], s.rows[i:])
	s.rows[i] = t
}

// Len implements Structure.
func (s *SortedList) Len() int { return len(s.rows) }

// Scan implements Structure (key order).
func (s *SortedList) Scan(fn func(types.Tuple) bool) {
	for _, t := range s.rows {
		if !fn(t) {
			return
		}
	}
}

// Properties implements Structure.
func (s *SortedList) Properties() Properties {
	return Properties{KeyAccess: true, Sorted: true, SupportsRange: true}
}

// Schema implements Structure.
func (s *SortedList) Schema() *types.Schema { return s.schema }

// KeyCols implements Keyed.
func (s *SortedList) KeyCols() []int { return s.keyCols }

// Probe implements Keyed via binary search.
func (s *SortedList) Probe(key []types.Value, fn func(types.Tuple) bool) {
	probe := types.Tuple(key)
	idx := types.Identity(len(key))
	lo := sort.Search(len(s.rows), func(i int) bool {
		return types.CompareKey(s.rows[i], s.keyCols, probe, idx) >= 0
	})
	for i := lo; i < len(s.rows); i++ {
		if types.CompareKey(s.rows[i], s.keyCols, probe, idx) != 0 {
			return
		}
		if !fn(s.rows[i]) {
			return
		}
	}
}

// ScanRange visits tuples with key in [lo, hi] (inclusive), in order.
func (s *SortedList) ScanRange(lo, hi []types.Value, fn func(types.Tuple) bool) {
	idx := types.Identity(len(lo))
	start := sort.Search(len(s.rows), func(i int) bool {
		return types.CompareKey(s.rows[i], s.keyCols, types.Tuple(lo), idx) >= 0
	})
	for i := start; i < len(s.rows); i++ {
		if types.CompareKey(s.rows[i], s.keyCols, types.Tuple(hi), idx) > 0 {
			return
		}
		if !fn(s.rows[i]) {
			return
		}
	}
}

// Rows exposes the ordered backing slice.
func (s *SortedList) Rows() []types.Tuple { return s.rows }
