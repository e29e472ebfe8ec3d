package s2cell

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"openflame/internal/geo"
)

// The reference implementations below are the straightforward slice-based
// bound and covering routines the optimized ones replaced. They are kept
// here only so the property tests can prove the replacements return the
// same cells in the same order.

func refBoundRects(c CellID) []geo.Rect {
	face, i, j, level := c.faceIJ()
	size := 1.0 / float64(uint64(1)<<uint(level))
	s0, t0 := float64(i)*size, float64(j)*size
	var samples []geo.LatLng
	for _, fs := range []float64{0, 0.5, 1} {
		for _, ft := range []float64{0, 0.5, 1} {
			samples = append(samples,
				xyzToLatLng(faceUVToXYZ(face, stToUV(s0+fs*size), stToUV(t0+ft*size))))
		}
	}
	r := geo.EmptyRect()
	for _, ll := range samples {
		r = r.ExpandToInclude(ll)
	}
	pad := func(q geo.Rect) geo.Rect {
		return q.Expanded((q.MaxLat-q.MinLat)*0.01+1e-9, (q.MaxLng-q.MinLng)*0.01+1e-9)
	}
	if r.MaxLng-r.MinLng <= 180 {
		return []geo.Rect{pad(r)}
	}
	if face == 2 || face == 5 {
		half := maxSize / 2
		cellSpan := 1 << uint(MaxLevel-level)
		iMin, jMin := i<<uint(MaxLevel-level), j<<uint(MaxLevel-level)
		if iMin <= half && half <= iMin+cellSpan && jMin <= half && half <= jMin+cellSpan {
			out := geo.Rect{MinLat: r.MinLat, MaxLat: r.MaxLat, MinLng: -180, MaxLng: 180}
			if face == 2 {
				out.MaxLat = 90
			} else {
				out.MinLat = -90
			}
			return []geo.Rect{out}
		}
	}
	east := geo.EmptyRect()
	west := geo.EmptyRect()
	for _, ll := range samples {
		if ll.Lng >= 0 {
			east = east.ExpandToInclude(ll)
		} else {
			west = west.ExpandToInclude(ll)
		}
	}
	east.MaxLng = 180
	west.MinLng = -180
	east.MinLat, west.MinLat = r.MinLat, r.MinLat
	east.MaxLat, west.MaxLat = r.MaxLat, r.MaxLat
	return []geo.Rect{pad(east), pad(west)}
}

func refCovering(r Region, level, maxCells int) []CellID {
	for l := level; l >= 0; l-- {
		if cells, ok := refCoverAtLevel(r, l, maxCells); ok {
			return cells
		}
	}
	cells, _ := refCoverAtLevel(r, 0, 0)
	return cells
}

func refCoverAtLevel(r Region, level, maxCells int) ([]CellID, bool) {
	var out []CellID
	var descend func(c CellID) bool
	descend = func(c CellID) bool {
		hit := false
		for _, b := range refBoundRects(c) {
			if r.IntersectsRect(b) {
				hit = true
				break
			}
		}
		if !hit {
			return true
		}
		if c.Level() == level {
			out = append(out, c)
			return maxCells <= 0 || len(out) <= maxCells
		}
		for _, ch := range c.Children() {
			if !descend(ch) {
				return false
			}
		}
		return true
	}
	for f := 0; f < numFaces; f++ {
		if !descend(FromFace(f)) {
			return nil, false
		}
	}
	refSortCells(out)
	return out, true
}

func refRegistrationCovering(r Region, minLevel, maxLevel int) []CellID {
	if minLevel > maxLevel {
		minLevel = maxLevel
	}
	cells, _ := refCoverAtLevel(r, maxLevel, 0)
	return refNormalize(cells, minLevel)
}

func refNormalize(cells []CellID, minLevel int) []CellID {
	refSortCells(cells)
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

func refSortCells(cells []CellID) {
	sort.Slice(cells, func(i, j int) bool { return cells[i] < cells[j] })
}

func refToken(c CellID) string {
	if c == 0 {
		return "X"
	}
	return strings.TrimRight(fmt.Sprintf("%016x", uint64(c)), "0")
}

// regionCenter draws a region center: mostly anywhere, with antimeridian
// and polar neighbourhoods over-sampled because their bounds take the
// special branches.
func regionCenter(rng *rand.Rand) geo.LatLng {
	switch rng.Intn(4) {
	case 0: // straddling the antimeridian
		lng := 180 - rng.Float64()*0.05
		if rng.Intn(2) == 0 {
			lng = -lng
		}
		return geo.LatLng{Lat: rng.Float64()*120 - 60, Lng: lng}
	case 1: // next to a pole
		lat := 90 - rng.Float64()*0.05
		if rng.Intn(2) == 0 {
			lat = -lat
		}
		return geo.LatLng{Lat: lat, Lng: rng.Float64()*360 - 180}
	default:
		return randLatLng(rng)
	}
}

// randRegion draws a cap, rect or small polygon sized at a few to a few
// dozen cells of the given level. Polygons are planar in latitude and
// longitude, so one drawn around a pole or across the antimeridian would
// span half the globe; they are centered elsewhere.
func randRegion(rng *rand.Rand, level int) Region {
	center := regionCenter(rng)
	radius := ApproxEdgeMeters(level) * (0.3 + rng.Float64()*12)
	switch rng.Intn(3) {
	case 0:
		return CapRegion{geo.Cap{Center: center, RadiusMeters: radius}}
	case 1:
		d := radius / geo.MetersPerDegreeLat
		return RectRegion{geo.RectFromCenter(center, d, d*(0.5+rng.Float64()))}
	default:
		center = randLatLng(rng)
		n := 3 + rng.Intn(5)
		poly := geo.Polygon{}
		for k := 0; k < n; k++ {
			bearing := float64(k)*360/float64(n) + rng.Float64()*20
			poly.Vertices = append(poly.Vertices, geo.Offset(center, radius*(0.4+rng.Float64()*0.6), bearing))
		}
		return PolygonRegion{poly}
	}
}

// TestCoveringMatchesReference: Covering, coverAtLevel and
// RegistrationCovering return exactly the reference cells, in order, over
// random caps, rects and polygons at levels 10–18 — including antimeridian
// and polar regions and maxCells coarsening.
func TestCoveringMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	maxCellsChoices := []int{0, 4, 16, 64, 1024}
	for trial := 0; trial < 300; trial++ {
		level := 10 + rng.Intn(9)
		region := randRegion(rng, level)
		maxCells := maxCellsChoices[rng.Intn(len(maxCellsChoices))]
		desc := fmt.Sprintf("trial %d: %T %+v level %d maxCells %d", trial, region, region, level, maxCells)

		got, want := Covering(region, level, maxCells), refCovering(region, level, maxCells)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Covering = %v, reference %v", desc, got, want)
		}
		gotCells, gotOK := coverAtLevel(region, level, maxCells)
		wantCells, wantOK := refCoverAtLevel(region, level, maxCells)
		if gotOK != wantOK || !reflect.DeepEqual(gotCells, wantCells) {
			t.Fatalf("%s: coverAtLevel = %v %v, reference %v %v", desc, gotCells, gotOK, wantCells, wantOK)
		}
		minLevel := level - rng.Intn(5)
		if got, want := RegistrationCovering(region, minLevel, level), refRegistrationCovering(region, minLevel, level); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: RegistrationCovering(%d) = %v, reference %v", desc, minLevel, got, want)
		}
	}
}

// TestBoundRectsMatchesReference: the public BoundRects (a wrapper over the
// fixed-array routine) equals the reference on random cells at every level,
// with antimeridian and polar cells over-sampled.
func TestBoundRectsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5000; trial++ {
		c := FromLatLngLevel(regionCenter(rng), rng.Intn(MaxLevel+1))
		if got, want := c.BoundRects(), refBoundRects(c); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: BoundRects = %v, reference %v", c, got, want)
		}
	}
	for f := 0; f < numFaces; f++ {
		c := FromFace(f)
		if got, want := c.BoundRects(), refBoundRects(c); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: BoundRects = %v, reference %v", c, got, want)
		}
	}
}

// TestTokenMatchesReference: Token equals the fmt formula on random IDs at
// every level and round-trips through FromToken.
func TestTokenMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(c CellID) {
		t.Helper()
		tok := c.Token()
		if want := refToken(c); tok != want {
			t.Fatalf("Token(%#x) = %q, reference %q", uint64(c), tok, want)
		}
		if back := FromToken(tok); back != c {
			t.Fatalf("FromToken(%q) = %#x, want %#x", tok, uint64(back), uint64(c))
		}
	}
	check(0)
	for f := 0; f < numFaces; f++ {
		check(FromFace(f))
	}
	for trial := 0; trial < 2000; trial++ {
		for level := 0; level <= MaxLevel; level++ {
			check(FromLatLngLevel(randLatLng(rng), level))
		}
		// Arbitrary bit patterns, valid or not, format the same way.
		if raw := CellID(rng.Uint64()); raw != 0 {
			if got, want := raw.Token(), refToken(raw); got != want {
				t.Fatalf("Token(%#x) = %q, reference %q", uint64(raw), got, want)
			}
		}
	}
}
