// Corpus for the sinkcomplete analyzer: empty-batch tolerance of
// PushBatch entries.
package sinkcomplete

type Tuple []int

// counter never indexes the batch: true negative.
type counter struct{ rows int }

func (c *counter) PushBatch(ts []Tuple) { c.rows += len(ts) }

// headPeek indexes the batch before checking emptiness.
type headPeek struct{ last Tuple }

func (h *headPeek) PushBatch(ts []Tuple) {
	h.last = ts[0] // want `PushBatch indexes its batch parameter before any length guard`
}

// guarded checks first: true negative.
type guarded struct{ last Tuple }

func (g *guarded) PushBatch(ts []Tuple) {
	if len(ts) == 0 {
		return
	}
	g.last = ts[0]
}

// looper indexes only with the loop variable: inherently bounded.
type looper struct{ sum int }

func (l *looper) PushBatch(ts []Tuple) {
	for i := range ts {
		l.sum += len(ts[i])
	}
}
