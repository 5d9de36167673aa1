// Corpus for the sinkcomplete analyzer: the sink fallback-chain
// contract (PushBatch ⇒ Push) and empty-batch tolerance of PushBatch
// entries.
package sinkcomplete

type Tuple []int

// full implements the whole chain: true negative.
type full struct{ rows int }

func (f *full) Push(t Tuple) { f.rows++ }
func (f *full) PushBatch(ts []Tuple) {
	for range ts {
		f.rows++
	}
}

// batchOnly has the row-batch entry but no per-row fallback.
type batchOnly struct{} // want `batchOnly implements PushBatch but not Push`

func (batchOnly) PushBatch(ts []Tuple) {}

// headPeek indexes the batch before checking emptiness.
type headPeek struct{ last Tuple }

func (h *headPeek) Push(t Tuple) { h.last = t }
func (h *headPeek) PushBatch(ts []Tuple) {
	h.last = ts[0] // want `PushBatch indexes its batch parameter before any length guard`
}

// guarded checks first: true negative.
type guarded struct{ last Tuple }

func (g *guarded) Push(t Tuple) { g.last = t }
func (g *guarded) PushBatch(ts []Tuple) {
	if len(ts) == 0 {
		return
	}
	g.last = ts[0]
}

// looper indexes only with the loop variable: inherently bounded.
type looper struct{ sum int }

func (l *looper) Push(t Tuple) {}
func (l *looper) PushBatch(ts []Tuple) {
	for i := range ts {
		l.sum += len(ts[i])
	}
}
