// Package geocode implements forward and reverse geocoding over a map
// server's store (§4): text address → map node, and geographic location →
// nearest addressable node or road (the service behind marker placement,
// click interaction, and GPS snapping).
package geocode

import (
	"strings"

	"openflame/internal/geo"
	"openflame/internal/osm"
	"openflame/internal/store"
)

// Result is a geocoding match.
type Result struct {
	NodeID   osm.NodeID `json:"nodeId"`
	Name     string     `json:"name"`
	Position geo.LatLng `json:"position"`
	// Score is the fraction of query tokens matched, in (0, 1].
	Score float64 `json:"score"`
	// Address is the node's full address tag if present.
	Address string `json:"address,omitempty"`
}

// Geocoder answers forward/reverse geocode queries against one store.
type Geocoder struct {
	s *store.Store
}

// New creates a geocoder over s.
func New(s *store.Store) *Geocoder { return &Geocoder{s: s} }

// Forward resolves a free-text address to candidate nodes, best first.
// Matching is token-based: every query token must appear in the node's
// indexed text for a perfect score; partial matches rank lower. At most
// limit results are returned (limit <= 0 means 10).
//
// Matches are ranked on their hit count and name alone, read from the
// map's columns; only the winners' addresses are read.
func (g *Geocoder) Forward(query string, limit int) []Result {
	if limit <= 0 {
		limit = 10
	}
	tokens := store.Tokenize(query)
	if len(tokens) == 0 {
		return nil
	}
	m := g.s.Map()
	top := store.NewTopK(limit, ranksBefore)
	var results []Result
	g.s.ForEachPostingMatch(tokens, func(id osm.NodeID, c int) {
		score := float64(c) / float64(len(tokens))
		if top.Full() {
			// IDs arrive ascending, so at an equal score this match beats
			// the worst kept one only by being named where it is not.
			w := top.Worst()
			if score < w.Score || (score == w.Score && w.Name != "") {
				return
			}
		}
		name, pos, ok := m.NodeTag(id, osm.TagName)
		if !ok {
			return
		}
		top.Offer(Result{NodeID: id, Name: name, Position: pos, Score: score})
	}, func() {
		results = top.Sorted()
		for i := range results {
			results[i].Address, _, _ = m.NodeTag(results[i].NodeID, osm.TagAddr)
		}
	})
	return results
}

// ranksBefore is Forward's order: score descending, then named nodes
// first, then ascending node ID.
func ranksBefore(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if an, bn := a.Name != "", b.Name != ""; an != bn {
		return an
	}
	return a.NodeID < b.NodeID
}

// Reverse finds the nearest addressable node (one with a name or address
// tag) within maxMeters of ll.
func (g *Geocoder) Reverse(ll geo.LatLng, maxMeters float64) (Result, bool) {
	hits := g.s.NearestNodesWhere(ll, 1, maxMeters, func(n *osm.Node) bool {
		return n.Tags.Get(osm.TagName) != "" || n.Tags.Get(osm.TagAddr) != "" ||
			n.Tags.Get(osm.TagNumber) != ""
	})
	if len(hits) == 0 {
		return Result{}, false
	}
	n := hits[0].Node
	return Result{
		NodeID:   n.ID,
		Name:     n.Tags.Get(osm.TagName),
		Position: g.s.Map().NodePosition(n),
		Score:    1,
		Address:  n.Tags.Get(osm.TagAddr),
	}, true
}

// RoadSnap is a snap-to-road result (§4: "snapping raw GPS coordinates to
// roads on the map while navigating").
type RoadSnap struct {
	WayID          osm.WayID  `json:"wayId"`
	RoadName       string     `json:"roadName"`
	Position       geo.LatLng `json:"position"`
	DistanceMeters float64    `json:"distanceMeters"`
	NodeID         osm.NodeID `json:"nodeId"`
}

// SnapToRoad projects a raw position onto the nearest mapped way.
func (g *Geocoder) SnapToRoad(ll geo.LatLng, maxMeters float64) (RoadSnap, bool) {
	snap, ok := g.s.SnapToWay(ll, maxMeters)
	if !ok {
		return RoadSnap{}, false
	}
	return RoadSnap{
		WayID:          snap.Way.ID,
		RoadName:       snap.Way.Tags.Get(osm.TagName),
		Position:       snap.Position,
		DistanceMeters: snap.DistanceMeters,
		NodeID:         snap.NodeID,
	}, true
}

// ParseAddress splits a comma-separated hierarchical address into
// components, most specific first: "Seaweed Shelf, Corner Grocery,
// Pittsburgh" → ["Seaweed Shelf", "Corner Grocery", "Pittsburgh"]. The
// client uses the coarse tail with a world geocoder and the specific head
// with the discovered fine map servers (§5.2).
func ParseAddress(addr string) []string {
	parts := strings.Split(addr, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
