package search

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"openflame/internal/geo"
	"openflame/internal/osm"
	"openflame/internal/store"
	"openflame/internal/worldgen"
)

// referenceSearch is Search as it was before ranking moved ahead of node
// building: every posting match that passes the filters is materialized,
// the whole slice sorted, and the first limit kept. The equivalence tests
// compare against it.
func referenceSearch(s *store.Store, query string, opt Options) []Result {
	limit := opt.Limit
	if limit <= 0 {
		limit = 10
	}
	tokens := store.Tokenize(query)
	if len(tokens) == 0 {
		return nil
	}
	m := s.Map()
	var results []Result
	s.ForEachPostingMatch(tokens, func(id osm.NodeID, c int) {
		if opt.RequireAllTokens && c < len(tokens) {
			return
		}
		n := m.Node(id)
		if n == nil {
			return
		}
		r := Result{
			NodeID:    id,
			Name:      n.Tags.Get(osm.TagName),
			Position:  m.NodePosition(n),
			TextScore: float64(c) / float64(len(tokens)),
			Tags:      n.Tags,
		}
		if opt.Near != nil {
			r.DistanceMeters = geo.DistanceMeters(*opt.Near, r.Position)
			if opt.MaxDistanceMeters > 0 && r.DistanceMeters > opt.MaxDistanceMeters {
				return
			}
		}
		r.Score = CombinedScore(r.TextScore, r.DistanceMeters, opt.Near != nil)
		results = append(results, r)
	}, nil)
	sort.Slice(results, func(i, j int) bool {
		if results[i].Score != results[j].Score {
			return results[i].Score > results[j].Score
		}
		if results[i].DistanceMeters != results[j].DistanceMeters {
			return results[i].DistanceMeters < results[j].DistanceMeters
		}
		if results[i].Name != results[j].Name {
			return results[i].Name < results[j].Name
		}
		return results[i].NodeID < results[j].NodeID
	})
	if len(results) > limit {
		results = results[:limit]
	}
	return results
}

// cityStore builds a compacted 48x48-block worldgen city (7,009 nodes) and
// returns its store plus the IDs of its tagged nodes.
func cityStore(t testing.TB) (*store.Store, []osm.NodeID) {
	t.Helper()
	p := worldgen.DefaultCityParams()
	p.BlocksX, p.BlocksY = 48, 48
	m := worldgen.GenCity(p)
	m.Compact()
	var tagged []osm.NodeID
	m.Nodes(func(n *osm.Node) bool {
		if len(n.Tags) > 0 {
			tagged = append(tagged, n.ID)
		}
		return true
	})
	return store.New(m), tagged
}

// vocabulary collects the map's own names, addresses and products as
// phrases, and their tokens.
func vocabulary(m *osm.Map) (phrases, tokens []string) {
	seen := map[string]bool{}
	m.Nodes(func(n *osm.Node) bool {
		for _, k := range []string{osm.TagName, osm.TagAddr, osm.TagStreet, osm.TagProduct} {
			v := n.Tags.Get(k)
			if v == "" || seen[v] {
				continue
			}
			seen[v] = true
			phrases = append(phrases, v)
			for _, tok := range store.Tokenize(v) {
				if !seen["\x00"+tok] {
					seen["\x00"+tok] = true
					tokens = append(tokens, tok)
				}
			}
		}
		return true
	})
	return phrases, tokens
}

// randomQuery draws a query from the vocabulary: a whole phrase, a few
// tokens in any order (sometimes with one the index lacks), or a coarse
// token that matches a large share of the map.
func randomQuery(rng *rand.Rand, phrases, tokens []string) string {
	switch r := rng.Intn(10); {
	case r < 3:
		return phrases[rng.Intn(len(phrases))]
	case r < 8:
		words := make([]string, 1+rng.Intn(4))
		for i := range words {
			words[i] = tokens[rng.Intn(len(tokens))]
		}
		if r == 7 {
			words = append(words, "zzqx")
		}
		return strings.Join(words, " ")
	default:
		coarse := []string{"Street", "Flameville", "5th Street", "Cafe", "Golden Cafe Flameville"}
		return coarse[rng.Intn(len(coarse))]
	}
}

// randomOptions draws the filters: no location, a location, or a location
// with a distance cap; RequireAllTokens half the time.
func randomOptions(rng *rand.Rand, bounds geo.Rect) Options {
	var opt Options
	if r := rng.Intn(3); r > 0 {
		near := geo.LatLng{
			Lat: bounds.MinLat + rng.Float64()*(bounds.MaxLat-bounds.MinLat),
			Lng: bounds.MinLng + rng.Float64()*(bounds.MaxLng-bounds.MinLng),
		}
		opt.Near = &near
		if r == 2 {
			opt.MaxDistanceMeters = 50 + rng.Float64()*1500
		}
	}
	opt.RequireAllTokens = rng.Intn(2) == 0
	return opt
}

// mutate rewrites some tagged nodes through the store (they move into the
// map's overlay): some lose their name, some take another node's name,
// some another address. It then removes others (tombstones in the packed
// columns). The counts stay below the compaction threshold.
func mutate(t testing.TB, s *store.Store, rng *rand.Rand, tagged []osm.NodeID) {
	t.Helper()
	m := s.Map()
	perm := rng.Perm(len(tagged))
	for i, pi := range perm[:240] {
		id := tagged[pi]
		tags := m.Node(id).Tags.Clone()
		other := m.Node(tagged[rng.Intn(len(tagged))]).Tags
		switch i % 3 {
		case 0:
			delete(tags, osm.TagName)
		case 1:
			tags[osm.TagName] = other.Get(osm.TagName)
		default:
			tags[osm.TagAddr] = other.Get(osm.TagAddr)
		}
		if !s.UpdateNodeTags(id, tags) {
			t.Fatalf("update of node %d refused", id)
		}
	}
	for _, pi := range perm[240:320] {
		if !s.RemoveNode(tagged[pi]) {
			t.Fatalf("remove of node %d refused", tagged[pi])
		}
	}
	if st := m.StorageStats(); st.OverlayNodes == 0 {
		t.Fatal("mutations did not reach the overlay")
	}
}

var testLimits = []int{0, 1, 3, 10, 50}

// checkSearchMatchesReference compares Search with the reference on n
// seeded queries and option sets at every test limit. The reference runs
// once per query with no effective limit: it keeps a prefix of one full
// sort, so its answer at any limit is a prefix of that.
func checkSearchMatchesReference(t *testing.T, s *store.Store, rng *rand.Rand, n int) {
	t.Helper()
	se := New(s)
	phrases, tokens := vocabulary(s.Map())
	bounds := s.Bounds()
	for q := 0; q < n; q++ {
		query := randomQuery(rng, phrases, tokens)
		opt := randomOptions(rng, bounds)
		opt.Limit = math.MaxInt
		full := referenceSearch(s, query, opt)
		for _, limit := range testLimits {
			k := limit
			if k <= 0 {
				k = 10
			}
			want := full[:min(k, len(full))]
			opt.Limit = limit
			if got := se.Search(query, opt); !reflect.DeepEqual(got, want) {
				t.Fatalf("Search(%q, %+v):\n got %+v\nwant %+v", query, opt, got, want)
			}
		}
	}
}

func TestSearchMatchesReference(t *testing.T) {
	s, tagged := cityStore(t)
	rng := rand.New(rand.NewSource(17))
	checkSearchMatchesReference(t, s, rng, 150)
	mutate(t, s, rng, tagged)
	checkSearchMatchesReference(t, s, rng, 150)
}

// TestSearchMatchesReferenceLocalFrame covers a local-frame map, whose
// positions are projected through the frame anchor.
func TestSearchMatchesReferenceLocalFrame(t *testing.T) {
	b := worldgen.GenStore(worldgen.DefaultStoreParams("Corner Grocery", geo.LatLng{Lat: 40.4410, Lng: -79.9916}))
	b.Map.Compact()
	s := store.New(b.Map)
	checkSearchMatchesReference(t, s, rand.New(rand.NewSource(18)), 100)
}

// TestSearchHostileLimit: a request's limit may be any int; a huge one
// answers like an exact one and allocates nothing in proportion to it.
func TestSearchHostileLimit(t *testing.T) {
	s, _ := cityStore(t)
	se := New(s)
	near := s.Bounds().Center()
	opt := Options{Near: &near, Limit: math.MaxInt}
	opt.Limit = len(referenceSearch(s, "golden cafe", opt))
	want := se.Search("golden cafe", opt)
	opt.Limit = 1 << 30
	if got := se.Search("golden cafe", opt); !reflect.DeepEqual(got, want) {
		t.Fatalf("limit 1<<30 answered %d results, exact limit %d", len(got), len(want))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	se.Search("golden cafe", opt)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("limit 1<<30 allocated %d bytes", grew)
	}
}

// TestSearchConsistentUnderConcurrentUpdate: ranking and building read one
// map state, so a result's name and tag set always come from the same
// write while another goroutine keeps rewriting the node.
func TestSearchConsistentUnderConcurrentUpdate(t *testing.T) {
	m := osm.NewMap("m", osm.Frame{Kind: osm.FrameGeodetic})
	id := m.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40, Lng: -80},
		Tags: osm.Tags{osm.TagName: "zeta one"}})
	s := store.New(m)
	states := []osm.Tags{{osm.TagName: "zeta one"}, {osm.TagName: "zeta two"}}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.UpdateNodeTags(id, states[i%2])
		}
	}()
	se := New(s)
	for i := 0; i < 20000; i++ {
		rs := se.Search("zeta", Options{Limit: 1})
		if len(rs) != 1 || rs[0].Tags.Get(osm.TagName) != rs[0].Name {
			close(stop)
			<-done
			t.Fatalf("torn result %+v", rs)
		}
	}
	close(stop)
	<-done
}
