package s2cell

import (
	"slices"

	"openflame/internal/geo"
)

// Region is a shape on the sphere that a covering approximates. The two
// predicates operate on latitude/longitude rectangles because cell bounds
// are rectangles; they may be conservative (returning true when uncertain)
// but must never report false for a rectangle that truly intersects or is
// contained.
type Region interface {
	// Bound returns a rectangle containing the region.
	Bound() geo.Rect
	// IntersectsRect reports whether the region may intersect r.
	IntersectsRect(r geo.Rect) bool
	// ContainsRect reports whether the region definitely contains all of r.
	ContainsRect(r geo.Rect) bool
}

// RectRegion adapts a geo.Rect to the Region interface.
type RectRegion struct{ Rect geo.Rect }

// Bound implements Region.
func (r RectRegion) Bound() geo.Rect { return r.Rect }

// IntersectsRect implements Region.
func (r RectRegion) IntersectsRect(q geo.Rect) bool { return r.Rect.Intersects(q) }

// ContainsRect implements Region.
func (r RectRegion) ContainsRect(q geo.Rect) bool { return r.Rect.ContainsRect(q) }

// CapRegion adapts a geo.Cap to the Region interface.
type CapRegion struct{ Cap geo.Cap }

// Bound implements Region.
func (c CapRegion) Bound() geo.Rect { return c.Cap.Bound() }

// IntersectsRect implements Region.
func (c CapRegion) IntersectsRect(r geo.Rect) bool {
	if r.IsEmpty() {
		return false
	}
	// Distance from cap center to the closest point of the rectangle.
	lat := clamp(c.Cap.Center.Lat, r.MinLat, r.MaxLat)
	lng := clamp(c.Cap.Center.Lng, r.MinLng, r.MaxLng)
	return geo.DistanceMeters(c.Cap.Center, geo.LatLng{Lat: lat, Lng: lng}) <= c.Cap.RadiusMeters
}

// ContainsRect implements Region.
func (c CapRegion) ContainsRect(r geo.Rect) bool {
	if r.IsEmpty() {
		return true
	}
	for _, v := range r.Vertices() {
		if !c.Cap.Contains(v) {
			return false
		}
	}
	return true
}

// PolygonRegion adapts a geo.Polygon to the Region interface.
type PolygonRegion struct{ Polygon geo.Polygon }

// Bound implements Region.
func (p PolygonRegion) Bound() geo.Rect { return p.Polygon.Bound() }

// IntersectsRect implements Region.
func (p PolygonRegion) IntersectsRect(r geo.Rect) bool {
	if !p.Polygon.Bound().Intersects(r) {
		return false
	}
	// Any polygon vertex inside the rect?
	for _, v := range p.Polygon.Vertices {
		if r.Contains(v) {
			return true
		}
	}
	// Any rect corner inside the polygon?
	for _, v := range r.Vertices() {
		if p.Polygon.Contains(v) {
			return true
		}
	}
	// Any edge crossing?
	rv := r.Vertices()
	n := len(p.Polygon.Vertices)
	for i := 0; i < n; i++ {
		a := p.Polygon.Vertices[i]
		b := p.Polygon.Vertices[(i+1)%n]
		for j := 0; j < 4; j++ {
			if segmentsCross(a, b, rv[j], rv[(j+1)%4]) {
				return true
			}
		}
	}
	return false
}

// ContainsRect implements Region.
func (p PolygonRegion) ContainsRect(r geo.Rect) bool {
	if r.IsEmpty() {
		return true
	}
	for _, v := range r.Vertices() {
		if !p.Polygon.Contains(v) {
			return false
		}
	}
	// All corners inside and no edge crossing means full containment for
	// simple polygons.
	rv := r.Vertices()
	n := len(p.Polygon.Vertices)
	for i := 0; i < n; i++ {
		a := p.Polygon.Vertices[i]
		b := p.Polygon.Vertices[(i+1)%n]
		for j := 0; j < 4; j++ {
			if segmentsCross(a, b, rv[j], rv[(j+1)%4]) {
				return false
			}
		}
	}
	return true
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// segmentsCross reports whether segments ab and cd properly intersect,
// treating lat/lng as planar coordinates.
func segmentsCross(a, b, c, d geo.LatLng) bool {
	o1 := orient(a, b, c)
	o2 := orient(a, b, d)
	o3 := orient(c, d, a)
	o4 := orient(c, d, b)
	return o1*o2 < 0 && o3*o4 < 0
}

func orient(a, b, c geo.LatLng) float64 {
	return (b.Lng-a.Lng)*(c.Lat-a.Lat) - (b.Lat-a.Lat)*(c.Lng-a.Lng)
}

// Covering returns cells at exactly the given level whose bounds intersect
// the region. If the result would exceed maxCells (<=0 means unlimited), the
// level is coarsened until it fits, so the result may be at a coarser level
// than requested but never exceeds maxCells.
func Covering(r Region, level, maxCells int) []CellID {
	for l := level; l >= 0; l-- {
		if cells, ok := coverAtLevel(r, l, maxCells); ok {
			return cells
		}
	}
	cells, _ := coverAtLevel(r, 0, 0)
	return cells
}

// coverAtLevel returns the level-l covering and whether it fit within
// maxCells (maxCells <= 0 disables the limit).
func coverAtLevel(r Region, level, maxCells int) ([]CellID, bool) {
	cv := coverer{r: r, level: level, maxCells: maxCells}
	for f := 0; f < numFaces; f++ {
		if !cv.descend(FromFace(f), cellSamples(f, 0, 0, 0), f, 0, 0, 0, 0) {
			return nil, false
		}
	}
	// Faces are walked in order and children in Hilbert order, which is ID
	// order, so the covering comes out sorted.
	return cv.out, true
}

// coverer is one covering walk. It hands each cell's sample grid down to
// its children: a child shares four of its nine samples with its parent,
// so each visited cell costs four new samples instead of nine.
type coverer struct {
	r        Region
	level    int
	maxCells int
	out      []CellID
}

// descend visits cell c — (i, j) at level on face, entered with Hilbert
// orientation o, with samples g — and reports false once the covering
// exceeds maxCells.
func (cv *coverer) descend(c CellID, g sampleGrid, face, i, j, level, o int) bool {
	rects, n := boundRects(g, face, i, j, level)
	hit := false
	for _, b := range rects[:n] {
		if cv.r.IntersectsRect(b) {
			hit = true
			break
		}
	}
	if !hit {
		return true
	}
	if level == cv.level {
		cv.out = append(cv.out, c)
		return cv.maxCells <= 0 || len(cv.out) <= cv.maxCells
	}
	// The four children's samples form a 5×5 grid at quarter-cell steps
	// whose even points are this cell's own samples.
	var fine [5][5]geo.LatLng
	quarter := 0.25 / float64(uint64(1)<<uint(level))
	for a := 0; a < 5; a++ {
		for b := 0; b < 5; b++ {
			if a%2 == 0 && b%2 == 0 {
				fine[a][b] = g[a/2][b/2]
			} else {
				fine[a][b] = stSample(face, 4*i+a, 4*j+b, quarter)
			}
		}
	}
	for p, ch := range c.Children() {
		ij := posToIJ[o][p]
		qi, qj := ij>>1, ij&1
		var cg sampleGrid
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				cg[a][b] = fine[2*qi+a][2*qj+b]
			}
		}
		if !cv.descend(ch, cg, face, 2*i+qi, 2*j+qj, level+1, o^posToOrientation[p]) {
			return false
		}
	}
	return true
}

// RegistrationCovering returns a mixed-level covering between minLevel and
// maxLevel: the region is covered at maxLevel, cells fully inside the region
// are merged upward (four present siblings collapse into their parent, no
// coarser than minLevel). This is the set of cells a map server registers in
// the discovery DNS.
func RegistrationCovering(r Region, minLevel, maxLevel int) []CellID {
	if minLevel > maxLevel {
		minLevel = maxLevel
	}
	cells, _ := coverAtLevel(r, maxLevel, 0)
	return normalize(cells, minLevel)
}

// normalize repeatedly replaces complete sibling quadruples with their
// parent, never going coarser than minLevel.
func normalize(cells []CellID, minLevel int) []CellID {
	slices.Sort(cells)
	for {
		merged := false
		var out []CellID
		for i := 0; i < len(cells); {
			c := cells[i]
			if c.Level() > minLevel && i+3 < len(cells) {
				parent := c.ImmediateParent()
				kids := parent.Children()
				if cells[i] == kids[0] && cells[i+1] == kids[1] &&
					cells[i+2] == kids[2] && cells[i+3] == kids[3] {
					out = append(out, parent)
					i += 4
					merged = true
					continue
				}
			}
			out = append(out, c)
			i++
		}
		cells = out
		if !merged {
			return cells
		}
	}
}

// CellUnionContains reports whether any cell in the (normalized or not)
// union contains the given cell.
func CellUnionContains(union []CellID, c CellID) bool {
	for _, u := range union {
		if u.Contains(c) {
			return true
		}
	}
	return false
}

// CellUnionIntersects reports whether any cell in the union intersects c.
func CellUnionIntersects(union []CellID, c CellID) bool {
	for _, u := range union {
		if u.Intersects(c) {
			return true
		}
	}
	return false
}
