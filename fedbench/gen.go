package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"openflame/internal/align"
	"openflame/internal/geo"
	"openflame/internal/loc"
	"openflame/internal/osm"
	"openflame/internal/worldgen"
)

// Service kinds of application calls, in the mix order.
const (
	kSearch = iota
	kGeocode
	kRoute
	kLocalize
	numKinds
)

var kindNames = [numKinds]string{"search", "geocode", "route", "localize"}

// mixWeights is the read mix of every workload: search 40 / geocode 20 /
// route 25 / localize 15.
var mixWeights = [numKinds]int{40, 20, 25, 15}

// zipfS skews the hot catalogue: a few requests take most of the traffic.
const zipfS = 1.2

// searchLimit is the result count every search and watch asks for.
const searchLimit = 5

// searchRadius is the client's default search cap (client.New).
const searchRadius = 1000.0

// Answer tolerances. A shelf sits at a known local point that the store's
// fitted alignment maps to within centimetres of its true world position.
// A route snaps its endpoints to the nearest graph node, at most half a
// block diagonal (about 71 m on 100 m blocks) from any street-grid point.
// Radio fingerprinting has a long error tail (2 m median, 13 m at the
// 99.9th percentile, 21 m worst over 20,000 random fixes in a 40×25 m
// store), so a fix must come from the right store and lie within the
// store's diagonal of the truth.
const (
	shelfTolMeters    = 5
	localizeTolMeters = 47
	snapTolMeters     = 75
)

// worldSpec sizes a generated world.
type worldSpec struct {
	blocks int
	stores int
}

func (w worldSpec) params() worldgen.WorldParams {
	p := worldgen.DefaultWorldParams()
	p.City.BlocksX, p.City.BlocksY = w.blocks, w.blocks
	p.NumStores = w.stores
	return p
}

// shelf is one stocked shelf and its ground truth.
type shelf struct {
	product string
	id      osm.NodeID
	local   geo.Point
	world   geo.LatLng
	tags    osm.Tags
}

// storeModel is the generator's ground truth for one store.
type storeModel struct {
	name     string // server name
	display  string // the store's map name, used in addresses
	bundle   *worldgen.IndoorBundle
	ga       *align.GeoAlignment
	entrance geo.LatLng
	shelves  []shelf // in bundle.Products order
}

// poi is a named city point of interest.
type poi struct {
	name, addr string
	pos        geo.LatLng
}

// cityModel is everything the generators know about a world.
type cityModel struct {
	spec          worldSpec
	world         *worldgen.World
	stores        []*storeModel
	pois          []poi
	sw, ne        geo.LatLng // street-grid bounds
	intersections []geo.LatLng
}

func serverName(b *worldgen.IndoorBundle) string {
	return strings.TrimPrefix(b.PortalID, "portal-")
}

func newCityModel(spec worldSpec, w *worldgen.World) (*cityModel, error) {
	p := spec.params()
	cm := &cityModel{spec: spec, world: w, sw: p.City.Origin}
	size := float64(spec.blocks) * p.City.BlockMeters
	cm.ne = geo.Offset(geo.Offset(p.City.Origin, size, 0), size, 90)
	for y := 0; y <= spec.blocks; y++ {
		for x := 0; x <= spec.blocks; x++ {
			cm.intersections = append(cm.intersections,
				geo.Offset(geo.Offset(p.City.Origin, float64(y)*p.City.BlockMeters, 0), float64(x)*p.City.BlockMeters, 90))
		}
	}
	w.Outdoor.Nodes(func(n *osm.Node) bool {
		if a := n.Tags.Get(osm.TagAmenity); a != "" {
			cm.pois = append(cm.pois, poi{name: n.Tags.Get(osm.TagName), addr: n.Tags.Get(osm.TagAddr), pos: n.Pos})
		}
		return true
	})
	sort.Slice(cm.pois, func(i, j int) bool {
		if cm.pois[i].addr != cm.pois[j].addr {
			return cm.pois[i].addr < cm.pois[j].addr
		}
		if cm.pois[i].name != cm.pois[j].name {
			return cm.pois[i].name < cm.pois[j].name
		}
		return cm.pois[i].pos.Lat < cm.pois[j].pos.Lat
	})
	for _, b := range w.Stores {
		ga, err := align.FitGeo(b.Correspondences)
		if err != nil {
			return nil, err
		}
		sm := &storeModel{
			name: serverName(b), display: b.Map.Name, bundle: b, ga: ga,
			entrance: b.Correspondences[len(b.Correspondences)-1].World,
		}
		byProduct := map[string]shelf{}
		b.Map.Nodes(func(n *osm.Node) bool {
			if pr := n.Tags.Get(osm.TagProduct); pr != "" {
				byProduct[pr] = shelf{product: pr, id: n.ID, local: n.Local, world: ga.ToWorld(n.Local), tags: n.Tags.Clone()}
			}
			return true
		})
		for _, pr := range b.Products {
			sm.shelves = append(sm.shelves, byProduct[pr])
		}
		cm.stores = append(cm.stores, sm)
	}
	return cm, nil
}

// op is one application call with the ground truth to check it against.
type op struct {
	kind int
	key  string // identifies the request; equal keys are equal requests

	// search
	query string
	near  geo.LatLng
	store int // hot: the store whose shelf must top the answer; -1 otherwise

	// geocode
	address string
	truths  []geo.LatLng // any of these is a correct answer

	// route
	from, to geo.LatLng

	// localize
	coarse   geo.LatLng
	cue      loc.Cue
	truthLL  geo.LatLng
	locStore int
}

// generator draws a workload's operations from a seeded source.
type generator struct {
	cm   *cityModel
	rng  *rand.Rand
	hot  bool
	pick func() int

	// hot catalogues, each drawn with its own Zipf sampler
	searchCat, geocodeCat, routeCat, locCat []op
	zipf                                    [numKinds]*rand.Zipf
}

// newGenerator builds the generator for a workload. Hot catalogues are a
// function of the world alone; the seed decides only the draw sequence.
// searchStores restricts hot searches to those stores (nil = all).
func newGenerator(cm *cityModel, hot bool, seed int64, searchStores []int) *generator {
	g := &generator{cm: cm, rng: rand.New(rand.NewSource(seed)), hot: hot}
	total := 0
	for _, w := range mixWeights {
		total += w
	}
	g.pick = func() int {
		r := g.rng.Intn(total)
		for k, w := range mixWeights {
			if r < w {
				return k
			}
			r -= w
		}
		return numKinds - 1
	}
	if hot {
		g.buildCatalogues(searchStores)
		for k, cat := range [][]op{g.searchCat, g.geocodeCat, g.routeCat, g.locCat} {
			g.zipf[k] = rand.NewZipf(g.rng, zipfS, 1, uint64(len(cat)-1))
		}
	}
	return g
}

func (g *generator) buildCatalogues(searchStores []int) {
	cm := g.cm
	crng := rand.New(rand.NewSource(int64(cm.spec.blocks)*1000 + int64(cm.spec.stores)))
	inSearch := func(s int) bool {
		if searchStores == nil {
			return true
		}
		for _, x := range searchStores {
			if x == s {
				return true
			}
		}
		return false
	}
	for s, sm := range cm.stores {
		for _, sh := range sm.shelves {
			if inSearch(s) {
				g.searchCat = append(g.searchCat, op{kind: kSearch, query: sh.product, near: sh.world, store: s,
					key: fmt.Sprintf("s|%s|%d", sh.product, s)})
			}
		}
	}
	// Geocodes ask for the named places nearest the stores, so the fine
	// fan-out reaches the store servers too. (Store-qualified shelf
	// addresses are answered wrongly by the program; see knownDefects.)
	for _, p := range cm.poisNear(120) {
		g.geocodeCat = append(g.geocodeCat, op{kind: kGeocode, address: p.name + ", " + p.addr,
			truths: cm.sameAddress(p), key: "g|" + p.name + ", " + p.addr})
	}
	var clear []geo.LatLng
	for _, p := range cm.intersections {
		if cm.nearestStore(p) >= storeClearance {
			clear = append(clear, p)
		}
	}
	origins := make([]geo.LatLng, 8)
	for i := range origins {
		origins[i] = clear[crng.Intn(len(clear))]
	}
	// Stitched routes end at shelves of stores with no other store within
	// storeClearance: a shelf inside a neighbouring store's DNS cells is
	// anchored to the wrong store (see knownDefects).
	for oi, o := range origins {
		for s, sm := range cm.stores {
			if cm.nearestOtherStore(s) < storeClearance {
				continue
			}
			for _, sh := range sm.shelves[:2] {
				g.routeCat = append(g.routeCat, op{kind: kRoute, from: o, to: sh.world,
					key: fmt.Sprintf("r|%d|%d|%s", oi, s, sh.product)})
			}
		}
	}
	truths := []geo.Point{{X: -10, Y: 6}, {X: 10, Y: 6}, {X: -10, Y: 18}, {X: 10, Y: 18}}
	for s, sm := range cm.stores {
		for ti, t := range truths {
			g.locCat = append(g.locCat, g.localizeOp(crng, s, sm, t, fmt.Sprintf("l|%d|%d", s, ti)))
		}
	}
	for _, cat := range [][]op{g.searchCat, g.geocodeCat, g.routeCat, g.locCat} {
		crng.Shuffle(len(cat), func(i, j int) { cat[i], cat[j] = cat[j], cat[i] })
	}
}

func (g *generator) localizeOp(rng *rand.Rand, s int, sm *storeModel, truth geo.Point, key string) op {
	cue := loc.SynthesizeRSSICue(truth, sm.bundle.Beacons, loc.DefaultRadioModel(), rng)
	world := sm.ga.ToWorld(truth)
	return op{kind: kLocalize, coarse: world, cue: cue, truthLL: world, locStore: s, key: key}
}

// next draws the next operation of the mix.
func (g *generator) next() op {
	k := g.pick()
	if g.hot {
		cat := [][]op{g.searchCat, g.geocodeCat, g.routeCat, g.locCat}[k]
		return cat[g.zipf[k].Uint64()]
	}
	return g.fresh(k)
}

// fresh draws a request that is new with overwhelming probability: random
// positions, random route pairs, new radio noise.
func (g *generator) fresh(k int) op {
	cm, rng := g.cm, g.rng
	switch k {
	case kSearch:
		// A named place within 300 m of the query point: its full-name
		// match outranks any partial match within the 1 km cap.
		p := cm.pois[rng.Intn(len(cm.pois))]
		near := geo.Offset(p.pos, 300*rng.Float64(), 360*rng.Float64())
		return op{kind: kSearch, query: p.name, near: near, store: -1,
			key: fmt.Sprintf("s|%s|%.7f|%.7f", p.name, near.Lat, near.Lng)}
	case kGeocode:
		p := cm.pois[rng.Intn(len(cm.pois))]
		addr := p.name + ", " + p.addr
		return op{kind: kGeocode, address: addr, truths: cm.sameAddress(p), key: "g|" + addr}
	case kRoute:
		from, to := g.streetPoint(), g.streetPoint()
		return op{kind: kRoute, from: from, to: to,
			key: fmt.Sprintf("r|%.7f|%.7f|%.7f|%.7f", from.Lat, from.Lng, to.Lat, to.Lng)}
	default:
		s := rng.Intn(len(cm.stores))
		truth := geo.Point{X: -15 + 30*rng.Float64(), Y: 3 + 19*rng.Float64()}
		return g.localizeOp(rng, s, cm.stores[s], truth,
			fmt.Sprintf("l|%d|%.4f|%.4f|%d", s, truth.X, truth.Y, rng.Int63()))
	}
}

func (g *generator) cityPoint() geo.LatLng {
	return geo.LatLng{
		Lat: g.cm.sw.Lat + g.rng.Float64()*(g.cm.ne.Lat-g.cm.sw.Lat),
		Lng: g.cm.sw.Lng + g.rng.Float64()*(g.cm.ne.Lng-g.cm.sw.Lng),
	}
}

// storeClearance keeps route endpoints away from the stores: the program
// anchors an endpoint inside a store's DNS cells to the store's map even
// when the point lies well outside it (see knownDefects).
const storeClearance = 250.0

// streetPoint draws a uniform city point at least storeClearance from
// every store entrance.
func (g *generator) streetPoint() geo.LatLng {
	for {
		p := g.cityPoint()
		if g.cm.nearestStore(p) >= storeClearance {
			return p
		}
	}
}

func (cm *cityModel) nearestStore(p geo.LatLng) float64 {
	best := math.Inf(1)
	for _, sm := range cm.stores {
		best = math.Min(best, geo.DistanceMeters(p, sm.entrance))
	}
	return best
}

func (cm *cityModel) nearestOtherStore(s int) float64 {
	best := math.Inf(1)
	for i, sm := range cm.stores {
		if i != s {
			best = math.Min(best, geo.DistanceMeters(cm.stores[s].entrance, sm.entrance))
		}
	}
	return best
}

// poisNear returns the n named places nearest to any store, in a
// deterministic order.
func (cm *cityModel) poisNear(n int) []poi {
	ps := append([]poi(nil), cm.pois...)
	sort.SliceStable(ps, func(i, j int) bool { return cm.nearestStore(ps[i].pos) < cm.nearestStore(ps[j].pos) })
	if len(ps) > n {
		ps = ps[:n]
	}
	return ps
}

// sameAddress lists the positions of every place sharing p's name and
// address: any of them is a correct geocode.
func (cm *cityModel) sameAddress(p poi) []geo.LatLng {
	var out []geo.LatLng
	for _, q := range cm.pois {
		if q.name == p.name && q.addr == p.addr {
			out = append(out, q.pos)
		}
	}
	return out
}

// sequence draws n operations.
func (g *generator) sequence(n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// digest fingerprints an operation sequence: two runs with equal digests
// issued the same requests in the same order.
func digest(ops []op) string {
	h := sha256.New()
	for _, o := range ops {
		h.Write([]byte(o.key))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// distinctShare is the number of distinct requests over the number of
// operations.
func distinctShare(ops []op) float64 {
	if len(ops) == 0 {
		return math.NaN()
	}
	seen := make(map[string]struct{}, len(ops))
	for _, o := range ops {
		seen[o.key] = struct{}{}
	}
	return float64(len(seen)) / float64(len(ops))
}
