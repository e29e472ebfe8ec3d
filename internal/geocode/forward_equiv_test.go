package geocode

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

// referenceForward is Forward as it was before ranking moved ahead of node
// building: every posting match is materialized, the whole slice sorted,
// and the first limit kept. The equivalence tests compare against it.
func referenceForward(s *store.Store, query string, limit int) []Result {
	if limit <= 0 {
		limit = 10
	}
	tokens := store.Tokenize(query)
	if len(tokens) == 0 {
		return nil
	}
	var results []Result
	m := s.Map()
	s.ForEachPostingMatch(tokens, func(id osm.NodeID, c int) {
		n := m.Node(id)
		if n == nil {
			return
		}
		results = append(results, Result{
			NodeID:   id,
			Name:     n.Tags.Get(osm.TagName),
			Position: m.NodePosition(n),
			Score:    float64(c) / float64(len(tokens)),
			Address:  n.Tags.Get(osm.TagAddr),
		})
	}, nil)
	sort.Slice(results, func(i, j int) bool {
		if results[i].Score != results[j].Score {
			return results[i].Score > results[j].Score
		}
		ni := results[i].Name != ""
		nj := results[j].Name != ""
		if ni != nj {
			return ni
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

// vocabulary collects the map's own names and addresses as phrases, and
// their tokens.
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

// checkForwardMatchesReference compares Forward with the reference on n
// seeded queries at every test limit. The reference runs once per query
// with no effective limit: it keeps a prefix of one full sort, so its
// answer at any limit is a prefix of that.
func checkForwardMatchesReference(t *testing.T, s *store.Store, rng *rand.Rand, n int) {
	t.Helper()
	g := New(s)
	phrases, tokens := vocabulary(s.Map())
	for q := 0; q < n; q++ {
		query := randomQuery(rng, phrases, tokens)
		full := referenceForward(s, query, math.MaxInt)
		for _, limit := range testLimits {
			k := limit
			if k <= 0 {
				k = 10
			}
			want := full[:min(k, len(full))]
			if got := g.Forward(query, limit); !reflect.DeepEqual(got, want) {
				t.Fatalf("Forward(%q, %d):\n got %+v\nwant %+v", query, limit, got, want)
			}
		}
	}
}

func TestForwardMatchesReference(t *testing.T) {
	s, tagged := cityStore(t)
	rng := rand.New(rand.NewSource(13))
	checkForwardMatchesReference(t, s, rng, 150)
	mutate(t, s, rng, tagged)
	checkForwardMatchesReference(t, s, rng, 150)
}

// TestForwardMatchesReferenceLocalFrame covers a local-frame map, whose
// positions are projected through the frame anchor.
func TestForwardMatchesReferenceLocalFrame(t *testing.T) {
	b := worldgen.GenStore(worldgen.DefaultStoreParams("Corner Grocery", geo.LatLng{Lat: 40.4410, Lng: -79.9916}))
	b.Map.Compact()
	s := store.New(b.Map)
	checkForwardMatchesReference(t, s, rand.New(rand.NewSource(14)), 100)
}

// TestForwardAllocsBounded pins that Forward builds only its winners: a
// coarse token matching thousands of nodes costs a bounded number of
// allocations at limit 1.
func TestForwardAllocsBounded(t *testing.T) {
	s, _ := cityStore(t)
	g := New(s)
	if len(g.Forward("street", 1)) != 1 {
		t.Fatal("no result for a common token")
	}
	if got := testing.AllocsPerRun(20, func() { g.Forward("street", 1) }); got > 64 {
		t.Fatalf("Forward(common token, 1) allocs/op = %v, want <= 64", got)
	}
}

// TestForwardHostileLimit: a request's limit may be any int; a huge one
// answers like an exact one and allocates nothing in proportion to it.
func TestForwardHostileLimit(t *testing.T) {
	s, _ := cityStore(t)
	g := New(s)
	exact := len(referenceForward(s, "golden cafe", math.MaxInt))
	want := g.Forward("golden cafe", exact)
	if got := g.Forward("golden cafe", 1<<30); !reflect.DeepEqual(got, want) {
		t.Fatalf("limit 1<<30 answered %d results, exact limit %d", len(got), len(want))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g.Forward("golden cafe", 1<<30)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("limit 1<<30 allocated %d bytes", grew)
	}
}

func BenchmarkForward(b *testing.B) {
	s, _ := cityStore(b)
	g := New(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(g.Forward("5th Street", 1)) != 1 {
			b.Fatal("no result")
		}
	}
}

// TestForwardConsistentUnderConcurrentUpdate: ranking and building read
// one map state, so a result's name and address always come from the same
// tag set while another goroutine keeps rewriting the node.
func TestForwardConsistentUnderConcurrentUpdate(t *testing.T) {
	m := osm.NewMap("m", osm.Frame{Kind: osm.FrameGeodetic})
	id := m.AddNode(&osm.Node{Pos: geo.LatLng{Lat: 40, Lng: -80},
		Tags: osm.Tags{osm.TagName: "zeta one", osm.TagAddr: "1 zeta way"}})
	s := store.New(m)
	states := []osm.Tags{
		{osm.TagName: "zeta one", osm.TagAddr: "1 zeta way"},
		{osm.TagName: "zeta two", osm.TagAddr: "2 zeta way"},
	}
	want := map[string]string{"zeta one": "1 zeta way", "zeta two": "2 zeta way"}
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
	g := New(s)
	for i := 0; i < 20000; i++ {
		rs := g.Forward("zeta", 1)
		if len(rs) != 1 || want[rs[0].Name] != rs[0].Address {
			close(stop)
			<-done
			t.Fatalf("torn result %+v", rs)
		}
	}
	close(stop)
	<-done
}
