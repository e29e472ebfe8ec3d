package store

import "slices"

// TopK keeps the k best values offered to it in a binary heap whose root
// is the worst value kept, so a ranked retrieval can reject most posting
// matches against one comparison. Its storage grows with the values kept,
// never with k: k may come straight from a request.
type TopK[T any] struct {
	k      int
	better func(a, b T) bool
	heap   []T
}

// NewTopK returns an empty TopK keeping at most k values (k >= 1), ranked
// by better (a strict order: better(a, b) means a ranks before b).
func NewTopK[T any](k int, better func(a, b T) bool) *TopK[T] {
	return &TopK[T]{k: k, better: better}
}

// Full reports whether k values are kept, so an offer must beat Worst.
func (t *TopK[T]) Full() bool { return len(t.heap) >= t.k }

// Worst returns the worst value kept. Only call it when Full.
func (t *TopK[T]) Worst() T { return t.heap[0] }

// Offer keeps x if fewer than k values are kept or x ranks before Worst,
// which it then evicts.
func (t *TopK[T]) Offer(x T) {
	h := t.heap
	if len(h) < t.k {
		h = append(h, x)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if !t.better(h[p], h[i]) {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		t.heap = h
		return
	}
	if !t.better(x, h[0]) {
		return
	}
	h[0] = x
	for i := 0; ; {
		w := 2*i + 1
		if w >= len(h) {
			break
		}
		if r := w + 1; r < len(h) && t.better(h[w], h[r]) {
			w = r
		}
		if !t.better(h[i], h[w]) {
			break
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}

// Sorted returns the kept values best first. The TopK must not be used
// afterwards.
func (t *TopK[T]) Sorted() []T {
	h := t.heap
	t.heap = nil
	slices.SortFunc(h, func(a, b T) int {
		switch {
		case t.better(a, b):
			return -1
		case t.better(b, a):
			return 1
		}
		return 0
	})
	return h
}
