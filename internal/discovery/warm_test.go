package discovery

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"openflame/internal/dns"
	"openflame/internal/s2cell"
)

// refCellDomain is the fmt-based formula CellDomain replaced.
func refCellDomain(c s2cell.CellID, suffix string) string {
	suffix = dns.CanonicalName(suffix)
	level := c.Level()
	labels := make([]string, 0, level+1)
	for l := level; l >= 1; l-- {
		labels = append(labels, fmt.Sprintf("q%d", c.ChildPosition(l)))
	}
	labels = append(labels, fmt.Sprintf("f%d", c.Face()))
	return strings.Join(labels, ".") + "." + suffix
}

// TestCellDomainMatchesReference: CellDomain equals the fmt formula at
// levels 0–30 on all six faces, under canonical and non-canonical suffixes.
func TestCellDomainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	suffixes := []string{DefaultSuffix, "Loc.Example.ORG", ".", " spatial.test "}
	for face := 0; face < 6; face++ {
		for trial := 0; trial < 20; trial++ {
			// A random leaf on this face: face bits, random position, marker.
			leaf := s2cell.CellID(uint64(face)<<61 | (rng.Uint64()>>3)&^1 | 1)
			for level := 0; level <= s2cell.MaxLevel; level++ {
				c := leaf.Parent(level)
				for _, sfx := range suffixes {
					if got, want := CellDomain(c, sfx), refCellDomain(c, sfx); got != want {
						t.Fatalf("CellDomain(%v, %q) = %q, reference %q", c, sfx, got, want)
					}
				}
			}
		}
	}
}

// warmRegionFixture is the search-path shape: six servers around a center
// and the client's default 1 km search cap, warmed once, with the cache
// clock frozen so no entry expires while it is measured.
func warmRegionFixture(t testing.TB) (*fixture, s2cell.Region) {
	f, center := regionFixture(t, 6)
	now := time.Unix(1000, 0)
	f.client.Now = func() time.Time { return now }
	region := capAround(center, 1000)
	if got := f.client.DiscoverRegionCtx(context.Background(), region); len(got) != 6 {
		t.Fatalf("warm-up discovered %d servers, want 6", len(got))
	}
	return f, region
}

// TestDiscoverRegionWarmAllocs bounds the allocations of a warm 1 km region
// discovery: cached cells are served inline, and neither the covering nor
// the hits allocate per cell.
func TestDiscoverRegionWarmAllocs(t *testing.T) {
	f, region := warmRegionFixture(t)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(20, func() {
		f.client.DiscoverRegionCtx(ctx, region)
	})
	if allocs > 200 {
		t.Fatalf("warm DiscoverRegionCtx: %.0f allocs per call, want <= 200", allocs)
	}
}

// TestLookupCellsResolvesOnlyMisses: a batch whose cells are all cached
// makes no DNS lookups at all, and a mixed batch looks up exactly its
// misses — with the same answers an uncached client gets.
func TestLookupCellsResolvesOnlyMisses(t *testing.T) {
	f, center := regionFixture(t, 6)
	now := time.Unix(1000, 0)
	f.client.Now = func() time.Time { return now }
	ctx := context.Background()

	cells := s2cell.Covering(capAround(center, 300), DefaultMaxLevel, 0)
	warm, cold := cells[:len(cells)/2], cells[len(cells)/2:]
	f.client.lookupCells(ctx, warm)

	queries := func() int64 { return f.resolver.Stats().Queries }
	q0, x0 := queries(), f.mem.ExchangeCount()
	f.client.lookupCells(ctx, warm)
	if q, x := queries(), f.mem.ExchangeCount(); q != q0 || x != x0 {
		t.Fatalf("all-hit batch made %d lookups and %d upstream exchanges", q-q0, x-x0)
	}

	// Flush the resolver so every miss has to go upstream.
	f.resolver.FlushCache()
	mixed := append(append([]s2cell.CellID(nil), cold...), warm...)
	got := f.client.lookupCells(ctx, mixed)
	if q := queries(); q-q0 != int64(len(cold)) {
		t.Fatalf("mixed batch made %d lookups, want one per miss (%d)", q-q0, len(cold))
	}
	if f.mem.ExchangeCount() == x0 {
		t.Fatal("mixed batch resolved its misses without going upstream")
	}

	uncached := NewClient(f.resolver, DefaultSuffix)
	uncached.AnnouncementTTL = 0
	if want := uncached.lookupCells(ctx, mixed); !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed batch answers differ from an uncached client's:\n%v\n%v", got, want)
	}
	found := 0
	for _, anns := range got {
		found += len(anns)
	}
	if found == 0 {
		t.Fatal("fixture announced nothing on the batch")
	}
}

// BenchmarkDiscoverRegionWarm is the search path's discovery step with a
// warm cache: a 1 km cap (about 220 level-16 cells plus ancestors) over six
// servers.
func BenchmarkDiscoverRegionWarm(b *testing.B) {
	f, region := warmRegionFixture(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := f.client.DiscoverRegionCtx(ctx, region); len(got) != 6 {
			b.Fatalf("discovered %d servers, want 6", len(got))
		}
	}
}
