package types

// Columnar (struct-of-arrays) batches are the frame of the signed delta
// path (standing-query maintenance); unsigned execution moves row batches
// ([]Tuple). A ColBatch stores its rows as per-column value arrays, which
// lets the key kernels run column-at-a-time over dense storage: HashKeys
// folds a whole batch's key columns into a reused hash vector, and the
// signed consumers (state.HashTable.InsertHashedBatch / ProbeHashedBatch,
// exec.AggTable group routing) spend that one vector per batch instead of
// hashing tuple-by-tuple.
//
// Ownership contract: a ColBatch handed to a consumer is only valid for
// the duration of the call (like a row batch), and its storage is reused
// by the producer. Consumers that retain rows must materialize them as
// tuples (ReadRow), which copies the values out.

// ColBatch is a struct-of-arrays tuple batch: cols[j][i] is column j of
// row i. All columns have identical length.
type ColBatch struct {
	cols [][]Value
	n    int
}

// NewColBatch creates an empty batch with the given column count.
func NewColBatch(width int) *ColBatch {
	return &ColBatch{cols: make([][]Value, width)}
}

// Len returns the row count.
func (b *ColBatch) Len() int { return b.n }

// Width returns the column count.
func (b *ColBatch) Width() int { return len(b.cols) }

// Reset empties the batch, retaining column capacity for reuse. Stale
// values are cleared so reused storage does not pin string payloads the
// consumer has already dropped.
func (b *ColBatch) Reset() {
	for j := range b.cols {
		clear(b.cols[j])
		b.cols[j] = b.cols[j][:0]
	}
	b.n = 0
}

// At returns column j of row i.
func (b *ColBatch) At(i, j int) Value { return b.cols[j][i] }

// Col returns the dense storage of column j (valid until the next Reset/
// append; callers must not grow it).
func (b *ColBatch) Col(j int) []Value { return b.cols[j] }

// AppendRow transposes one row-major tuple into the batch's columns. The
// tuple's width must equal the batch's.
func (b *ColBatch) AppendRow(t Tuple) {
	for j := range b.cols {
		b.cols[j] = append(b.cols[j], t[j])
	}
	b.n++
}

// AppendRows transposes a row batch into the columns.
func (b *ColBatch) AppendRows(ts []Tuple) {
	for _, t := range ts {
		b.AppendRow(t)
	}
}

// AppendHits appends len(sel) join-output rows built from probe hits
// without materializing any row: hit k joins probe row sel[k] of src with
// the row-major matched tuple matches[k]. The probe side's columns gather
// column-at-a-time into [probeOff, probeOff+src.Width()); each match-side
// tuple spreads into [matchOff, matchOff+len(matches[k])). sel and
// matches must have equal length.
//
//adp:hotpath gated by BenchmarkDeltaPropagation (scripts/check_allocs.sh)
func (b *ColBatch) AppendHits(src *ColBatch, sel []int32, probeOff int, matches []Tuple, matchOff int) {
	for j, sc := range src.cols {
		dc := b.cols[probeOff+j]
		for _, i := range sel {
			dc = append(dc, sc[i])
		}
		b.cols[probeOff+j] = dc
	}
	for _, mt := range matches {
		for j, v := range mt {
			b.cols[matchOff+j] = append(b.cols[matchOff+j], v)
		}
	}
	b.n += len(sel)
}

// ReadRow materializes row i into dst (which must have the batch's
// width), copying the values out of columnar storage.
func (b *ColBatch) ReadRow(dst Tuple, i int) {
	for j := range b.cols {
		dst[j] = b.cols[j][i]
	}
}

// HashKeys hashes the key columns of every row of b into dst, reusing
// dst's storage when its capacity suffices (pass the previous result for
// allocation-free steady state). Unlike per-tuple Tuple.HashKey calls it
// runs column-at-a-time: the hash vector is seeded once, then each key
// column's dense value array is folded into every row's lane in one
// sequential sweep — the struct-of-arrays layout keeps those sweeps on
// contiguous memory. dst[i] equals what row i's Tuple.HashKey(cols) would
// return.
//
//adp:hotpath gated by BenchmarkHashKeys (scripts/check_allocs.sh)
func HashKeys(dst []uint64, b *ColBatch, cols []int) []uint64 {
	n := b.n
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = fnvOffset
	}
	for _, c := range cols {
		col := b.Col(c)
		for i := 0; i < n; i++ {
			dst[i] = HashValue(dst[i], col[i])
		}
	}
	return dst
}
