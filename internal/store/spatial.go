package store

import (
	"openflame/internal/geo"
	"openflame/internal/osm"
	"openflame/internal/rtree"
)

// spatialIndex layers mutability over an immutable bulk-loaded R-tree, the
// same overlay pattern the columnar node storage uses: reads hit the big
// static tree (flat arrays, cache-friendly iterative traversal) plus a
// small dynamic side-tree holding everything inserted since the last
// compaction; deletions of static items go into a dead set consulted on
// every static visit. When the overlay grows past a fraction of the static
// tree the whole thing is re-bulk-loaded — amortized, so sustained write
// loads keep their O(log n) feel while the read path stays packed.
//
// Not self-locking: the owning Store serializes access under its mutex.
type spatialIndex[T comparable] struct {
	static *rtree.Static[T]
	dead   map[T]struct{} // deleted static items (payloads are unique)
	side   *rtree.Tree[T] // inserts since the last compaction
}

func newSpatial[T comparable](static *rtree.Static[T]) *spatialIndex[T] {
	return &spatialIndex[T]{
		static: static,
		dead:   make(map[T]struct{}),
		side:   rtree.New[T](),
	}
}

func (sp *spatialIndex[T]) len() int {
	return sp.static.Len() - len(sp.dead) + sp.side.Len()
}

func (sp *spatialIndex[T]) insert(bound geo.Rect, item T) {
	sp.side.Insert(bound, item)
}

func (sp *spatialIndex[T]) delete(bound geo.Rect, item T) bool {
	if sp.side.Delete(bound, item) {
		return true
	}
	if sp.static.Contains(bound, item) {
		if _, ok := sp.dead[item]; !ok {
			sp.dead[item] = struct{}{}
			return true
		}
	}
	return false
}

func (sp *spatialIndex[T]) search(query geo.Rect, fn func(bound geo.Rect, item T) bool) {
	stopped := false
	sp.static.Search(query, func(b geo.Rect, it T) bool {
		if _, ok := sp.dead[it]; ok {
			return true
		}
		if !fn(b, it) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	sp.side.Search(query, fn)
}

// nearest merges the static tree's k best (dead items skipped inside the
// traversal, before they occupy result slots) with the side tree's k best.
func (sp *spatialIndex[T]) nearest(ll geo.LatLng, k int, maxMeters float64) []rtree.Neighbor[T] {
	var skip func(T) bool
	if len(sp.dead) > 0 {
		skip = func(it T) bool { _, ok := sp.dead[it]; return ok }
	}
	a := sp.static.NearestAppend(nil, ll, k, maxMeters, skip)
	if sp.side.Len() == 0 {
		return a
	}
	b := sp.side.Nearest(ll, k, maxMeters)
	if len(a) == 0 {
		return b
	}
	out := make([]rtree.Neighbor[T], 0, min(k, len(a)+len(b)))
	i, j := 0, 0
	for len(out) < k && (i < len(a) || j < len(b)) {
		if j == len(b) || (i < len(a) && a[i].DistanceMeters <= b[j].DistanceMeters) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	return out
}

func (sp *spatialIndex[T]) forEach(fn func(bound geo.Rect, item T) bool) {
	stopped := false
	sp.static.ForEach(func(b geo.Rect, it T) bool {
		if _, ok := sp.dead[it]; ok {
			return true
		}
		if !fn(b, it) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	sp.side.ForEach(fn)
}

func (sp *spatialIndex[T]) maybeCompact() {
	if osm.ShouldCompact(len(sp.dead)+sp.side.Len(), sp.static.Len()) {
		sp.compact()
	}
}

// compact folds the overlay back into one freshly bulk-loaded static tree.
func (sp *spatialIndex[T]) compact() {
	if len(sp.dead) == 0 && sp.side.Len() == 0 {
		return
	}
	ents := make([]rtree.Entry[T], 0, sp.len())
	sp.forEach(func(b geo.Rect, it T) bool {
		ents = append(ents, rtree.Entry[T]{Bound: b, Item: it})
		return true
	})
	sp.static = rtree.BulkLoad(ents)
	sp.dead = make(map[T]struct{})
	sp.side = rtree.New[T]()
}
