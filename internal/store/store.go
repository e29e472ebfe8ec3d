// Package store implements a map server's spatial database: an R-tree over
// node positions and way segments for geometric queries (reverse geocode,
// snapping, viewport retrieval) and an inverted index over tag text for
// keyword retrieval. It is the per-server "federated spatial database"
// building block of Figure 2.
package store

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"

	"openflame/internal/geo"
	"openflame/internal/osm"
	"openflame/internal/rtree"
)

// SegmentRef identifies one segment of a way.
type SegmentRef struct {
	WayID osm.WayID
	Index int // segment i connects way node i and i+1
}

// Store indexes one osm.Map. Mutations go through the Store (not the
// underlying map) so indexes stay consistent. Safe for concurrent use.
type Store struct {
	mu sync.RWMutex
	m  *osm.Map
	// The spatial indexes are static bulk-loaded trees with a small dynamic
	// overlay for mutations (see spatialIndex); on a server booted from an
	// indexed snapshot the static columns alias the mmap.
	nodes *spatialIndex[osm.NodeID] // node positions (point rects)
	segs  *spatialIndex[SegmentRef] // way segment bounds
	// inv maps token → sorted posting list. Published lists are
	// copy-on-write: a mid-list insert or any delete builds a fresh slice
	// (tail appends only ever touch capacity beyond a reader's length), so
	// ForEachPostingMatch can merge over them without copying.
	inv map[string][]osm.NodeID
	// bounds caches the map's geodetic bounds, maintained incrementally.
	bounds geo.Rect
	// changes is the sequence-numbered inventory-update log (tag
	// replacements), bounded at changeLogCap entries; changeSeq is the head
	// position. Replicas pull this log from each other for anti-entropy.
	changes   []Change
	changeSeq uint64
	// logID identifies this log's incarnation (drawn at construction):
	// a restarted store mints a new one, so consumers can tell "the log
	// restarted" apart from "the log advanced" even when the new head has
	// overtaken their cursor.
	logID uint64
	// nodeVer tracks each node's update version (see Change.Ver); absent
	// means 0 (never tag-updated).
	nodeVer map[osm.NodeID]uint64
	// notify is a 1-buffered wakeup for change-log consumers: every log
	// append sends non-blockingly, so a sleeping drain loop wakes without
	// any writer ever waiting on a reader. A coalesced signal is enough —
	// consumers re-read the head and drain everything pending.
	notify chan struct{}
}

// Change is one sequence-numbered inventory update: the node's tags were
// replaced wholesale with Tags. The log records tag replacements (the
// paper's independent map-management writes); structural mutations rebuild
// replicas out of band.
type Change struct {
	Seq    uint64
	NodeID osm.NodeID
	Tags   osm.Tags
	// Ver is the node's update version: every local write increments it,
	// and a replicated application adopts the origin's version. It is what
	// lets a replica tell a sibling's ECHO of an old value apart from a
	// genuinely newer write — without it, an echo arriving after a local
	// update would roll the node back and the newer write would be lost
	// federation-wide.
	Ver uint64
	// Pos is the node's position, recorded so log consumers can route the
	// change geometrically (the watch subsystem matches changes against
	// standing regional queries) without a node lookup. Tag updates never
	// move nodes, so the position is exact for the change's lifetime.
	Pos geo.LatLng
}

// changeLogCap is the guaranteed retention of the change log (compaction
// is amortized, so up to 2x may be held). A replica further behind than
// the retained window cannot replay the compacted prefix; because
// applications of the log are idempotent tag replacements, it still
// converges on every retained (and future) change.
const changeLogCap = 4096

// portalToken is the reserved inverted-index token whose posting list
// holds every node carrying osm.TagPortalID, ascending by ID. Tokenize
// only ever emits lowercase alphanumerics, so the NUL prefix cannot
// collide with a real token, and the list rides posting-list persistence
// for free — an attached server knows its portals without walking the map.
const portalToken = "\x00portal"

// New builds the indexes for m from scratch — the cold-start path (no
// snapshot index, or a stale one). The three index families are
// independent, so they build in parallel: node tree, segment tree, and
// inverted text index each get a goroutine walking the (read-only,
// RLock-shared) map. The map must not be mutated externally afterwards.
func New(m *osm.Map) *Store {
	s := &Store{
		m:       m,
		inv:     make(map[string][]osm.NodeID),
		bounds:  geo.EmptyRect(),
		nodeVer: make(map[osm.NodeID]uint64),
		logID:   newLogID(),
		notify:  make(chan struct{}, 1),
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		ents := make([]rtree.Entry[osm.NodeID], 0, m.NodeCount())
		bounds := geo.EmptyRect()
		m.Nodes(func(n *osm.Node) bool {
			pos := m.NodePosition(n)
			bounds = bounds.ExpandToInclude(pos)
			ents = append(ents, rtree.Entry[osm.NodeID]{Bound: pointRect(pos), Item: n.ID})
			return true
		})
		s.nodes = newSpatial(rtree.BulkLoad(ents))
		s.bounds = bounds
	}()
	go func() {
		defer wg.Done()
		var ents []rtree.Entry[SegmentRef]
		m.Ways(func(w *osm.Way) bool {
			nodes := m.WayNodes(w)
			for i := 1; i < len(nodes); i++ {
				a := m.NodePosition(nodes[i-1])
				b := m.NodePosition(nodes[i])
				r := geo.EmptyRect().ExpandToInclude(a).ExpandToInclude(b)
				ents = append(ents, rtree.Entry[SegmentRef]{
					Bound: r, Item: SegmentRef{WayID: w.ID, Index: i - 1},
				})
			}
			return true
		})
		s.segs = newSpatial(rtree.BulkLoad(ents))
	}()
	go func() {
		defer wg.Done()
		// Nodes iterates in ascending ID order, so every insertPosting here
		// is a tail append.
		m.Nodes(func(n *osm.Node) bool {
			for _, tok := range TokenizeTags(n.Tags) {
				s.inv[tok] = insertPosting(s.inv[tok], n.ID)
			}
			if n.Tags[osm.TagPortalID] != "" {
				s.inv[portalToken] = insertPosting(s.inv[portalToken], n.ID)
			}
			return true
		})
	}()
	wg.Wait()
	return s
}

// NewWithIndex attaches a persisted snapshot index (osm.IndexData, already
// fingerprint-verified against the map's columns by the snapshot reader)
// instead of rebuilding: the static trees are validated structurally and
// adopted as-is, and posting lists slice the persisted CSR arena in place.
// On the mmap path nothing here copies the tree columns — boot cost is
// O(validation), not O(n log n) build.
//
// An error means the index is unusable (corrupt layout, count mismatch);
// callers fall back to New.
func NewWithIndex(m *osm.Map, idx *osm.IndexData) (*Store, error) {
	if idx == nil {
		return nil, fmt.Errorf("store: nil index")
	}
	nodeTree, err := rtree.StaticFromLayout(idx.NodeTree, idx.NodeItems)
	if err != nil {
		return nil, fmt.Errorf("store: node tree: %w", err)
	}
	if nodeTree.Len() != m.NodeCount() {
		return nil, fmt.Errorf("store: index holds %d nodes, map %d", nodeTree.Len(), m.NodeCount())
	}
	if len(idx.SegWays) != len(idx.SegIdxs) {
		return nil, fmt.Errorf("store: segment payload columns disagree")
	}
	refs := make([]SegmentRef, len(idx.SegWays))
	for i := range refs {
		refs[i] = SegmentRef{WayID: osm.WayID(idx.SegWays[i]), Index: int(idx.SegIdxs[i])}
	}
	segTree, err := rtree.StaticFromLayout(idx.SegTree, refs)
	if err != nil {
		return nil, fmt.Errorf("store: segment tree: %w", err)
	}
	if len(idx.PostOff) != len(idx.Tokens)+1 {
		return nil, fmt.Errorf("store: posting offsets disagree with tokens")
	}
	inv := make(map[string][]osm.NodeID, len(idx.Tokens))
	for i, tok := range idx.Tokens {
		if lo, hi := idx.PostOff[i], idx.PostOff[i+1]; hi > lo {
			// Three-index slices: a later copy-on-write append reallocates
			// instead of scribbling past a reader's view (or into the mmap).
			inv[tok] = idx.Postings[lo:hi:hi]
		}
	}
	return &Store{
		m:       m,
		nodes:   newSpatial(nodeTree),
		segs:    newSpatial(segTree),
		inv:     inv,
		bounds:  idx.Bounds,
		nodeVer: make(map[osm.NodeID]uint64),
		logID:   newLogID(),
		notify:  make(chan struct{}, 1),
	}, nil
}

// PersistedIndex exports the serving indexes for snapshot persistence
// (osm.WriteSnapshotVersionsIndexed). Both spatial overlays are compacted
// first so the export is exactly two static trees; the inverted index
// flattens into sorted tokens over one CSR postings arena. A server that
// later attaches this export serves byte-identical results: BulkLoad is
// deterministic and posting lists are persisted in full.
func (s *Store) PersistedIndex() *osm.IndexData {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nodes.compact()
	s.segs.compact()
	idx := &osm.IndexData{
		Bounds:    s.bounds,
		NodeTree:  s.nodes.static.Layout(),
		NodeItems: append([]osm.NodeID(nil), s.nodes.static.Items()...),
	}
	segItems := s.segs.static.Items()
	idx.SegTree = s.segs.static.Layout()
	idx.SegWays = make([]int64, len(segItems))
	idx.SegIdxs = make([]int32, len(segItems))
	for i, ref := range segItems {
		idx.SegWays[i] = int64(ref.WayID)
		idx.SegIdxs[i] = int32(ref.Index)
	}
	idx.Tokens = make([]string, 0, len(s.inv))
	for tok := range s.inv {
		idx.Tokens = append(idx.Tokens, tok)
	}
	sort.Strings(idx.Tokens)
	idx.PostOff = make([]uint32, 1, len(idx.Tokens)+1)
	for _, tok := range idx.Tokens {
		idx.Postings = append(idx.Postings, s.inv[tok]...)
		idx.PostOff = append(idx.PostOff, uint32(len(idx.Postings)))
	}
	return idx
}

// Map returns the underlying map.
//
// Aliasing contract: the returned *osm.Map is the live map the Store
// indexes, handed out for READ-ONLY use (position lookups, iteration,
// FindNodes). Callers must not invoke its write methods — AddNode, AddWay,
// AddRelation, RemoveNode, RemoveWay — or mutate returned elements in
// place: a direct write would bypass the R-tree and inverted index AND the
// generation tracking the server-side query/tile caches key on, silently
// serving stale or inconsistent results. All mutations go through Store
// methods (AddNode, AddWay, UpdateNodeTags, RemoveNode), which maintain
// the indexes and bump the map generation atomically under the Store lock.
func (s *Store) Map() *osm.Map { return s.m }

// Generation returns the underlying map's mutation counter. Every Store
// mutation bumps it exactly once, so a reader observing an unchanged
// generation across a computation saw one consistent snapshot. It is the
// version the mapserver query cache keys results on.
func (s *Store) Generation() uint64 { return s.m.Generation() }

// Bounds returns the geodetic bounding rectangle of the indexed content.
func (s *Store) Bounds() geo.Rect {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bounds
}

func pointRect(ll geo.LatLng) geo.Rect {
	return geo.Rect{MinLat: ll.Lat, MinLng: ll.Lng, MaxLat: ll.Lat, MaxLng: ll.Lng}
}

func (s *Store) indexNode(n *osm.Node) {
	pos := s.m.NodePosition(n)
	s.nodes.insert(pointRect(pos), n.ID)
	s.bounds = s.bounds.ExpandToInclude(pos)
	for _, tok := range TokenizeTags(n.Tags) {
		s.inv[tok] = insertPosting(s.inv[tok], n.ID)
	}
	if n.Tags[osm.TagPortalID] != "" {
		s.inv[portalToken] = insertPosting(s.inv[portalToken], n.ID)
	}
}

// insertPosting adds id to a sorted posting list. The index build appends
// ascending IDs, so the common case is a tail append; a mid-list insert is
// copy-on-write to keep published lists immutable.
func insertPosting(lst []osm.NodeID, id osm.NodeID) []osm.NodeID {
	i := sort.Search(len(lst), func(i int) bool { return lst[i] >= id })
	if i == len(lst) {
		return append(lst, id)
	}
	if lst[i] == id {
		return lst
	}
	out := make([]osm.NodeID, len(lst)+1)
	copy(out, lst[:i])
	out[i] = id
	copy(out[i+1:], lst[i:])
	return out
}

// removePosting removes id from a sorted posting list, copy-on-write.
func removePosting(lst []osm.NodeID, id osm.NodeID) []osm.NodeID {
	i := sort.Search(len(lst), func(i int) bool { return lst[i] >= id })
	if i == len(lst) || lst[i] != id {
		return lst
	}
	out := make([]osm.NodeID, 0, len(lst)-1)
	out = append(out, lst[:i]...)
	return append(out, lst[i+1:]...)
}

func (s *Store) unindexNode(n *osm.Node) {
	pos := s.m.NodePosition(n)
	s.nodes.delete(pointRect(pos), n.ID)
	toks := TokenizeTags(n.Tags)
	if n.Tags[osm.TagPortalID] != "" {
		toks = append(toks, portalToken)
	}
	for _, tok := range toks {
		if lst := removePosting(s.inv[tok], n.ID); len(lst) == 0 {
			delete(s.inv, tok)
		} else {
			s.inv[tok] = lst
		}
	}
}

func (s *Store) indexWay(w *osm.Way) {
	nodes := s.m.WayNodes(w)
	for i := 1; i < len(nodes); i++ {
		a := s.m.NodePosition(nodes[i-1])
		b := s.m.NodePosition(nodes[i])
		r := geo.EmptyRect().ExpandToInclude(a).ExpandToInclude(b)
		s.segs.insert(r, SegmentRef{WayID: w.ID, Index: i - 1})
	}
}

// AddNode inserts a node into the map and indexes, returning its ID.
func (s *Store) AddNode(n *osm.Node) osm.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.m.AddNode(n)
	s.indexNode(n)
	s.nodes.maybeCompact()
	return id
}

// AddWay inserts a way into the map and indexes.
func (s *Store) AddWay(w *osm.Way) (osm.WayID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, err := s.m.AddWay(w)
	if err != nil {
		return 0, err
	}
	s.indexWay(w)
	s.segs.maybeCompact()
	return id, nil
}

// UpdateNodeTags replaces a node's tags, maintaining the inverted index.
// The update is copy-on-write: the stored node is replaced by a fresh one,
// so concurrent readers holding the old *osm.Node see a consistent (stale)
// snapshot rather than a mutating map.
func (s *Store) UpdateNodeTags(id osm.NodeID, tags osm.Tags) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.m.Node(id)
	if n == nil {
		return false
	}
	s.replaceTagsLocked(n, tags, s.nodeVer[id]+1)
	return true
}

// ApplyReplicatedTags applies a tag state replicated from a sibling,
// carrying the origin's node version. Returns whether the map changed:
// a version at or below the local one is a stale echo or a replay and is
// skipped — the guard that stops an old value arriving late from rolling
// back a newer local write. An EQUAL-version conflict (two replicas wrote
// the same node concurrently) settles on the canonically larger tag
// serialization, so every member of the set picks the same winner.
func (s *Store) ApplyReplicatedTags(id osm.NodeID, tags osm.Tags, ver uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.m.Node(id)
	if n == nil {
		return false
	}
	cur := s.nodeVer[id]
	if ver < cur {
		return false
	}
	if ver == cur && canonicalTags(tags) <= canonicalTags(n.Tags) {
		return false
	}
	s.replaceTagsLocked(n, tags, ver)
	return true
}

// NodeVersion returns a node's update version (0 = never tag-updated).
func (s *Store) NodeVersion(id osm.NodeID) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nodeVer[id]
}

// NodeVersions returns a copy of every non-zero node update version — the
// state persisted alongside a map snapshot (osm.WriteSnapshotVersions) so a
// restarted replica resumes versioning where it left off.
func (s *Store) NodeVersions() map[osm.NodeID]uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[osm.NodeID]uint64, len(s.nodeVer))
	for id, v := range s.nodeVer {
		out[id] = v
	}
	return out
}

// RestoreNodeVersions seeds node update versions from a persisted snapshot:
// each node adopts the restored version unless it already holds a higher
// one. No change is logged and the generation does not move — restoring
// versions is bookkeeping, not a write. It closes the restart gap: a
// replica that restarts and accepts writes while isolated from every
// sibling would otherwise mint low versions that lose to the stale history
// those siblings still hold.
func (s *Store) RestoreNodeVersions(vers map[osm.NodeID]uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, v := range vers {
		if v > s.nodeVer[id] {
			s.nodeVer[id] = v
		}
	}
}

// replaceTagsLocked swaps a node's tags copy-on-write, maintains the
// indexes and version, and appends to the change log. Caller holds s.mu.
func (s *Store) replaceTagsLocked(n *osm.Node, tags osm.Tags, ver uint64) {
	s.unindexNode(n)
	nn := &osm.Node{ID: n.ID, Pos: n.Pos, Local: n.Local, Tags: tags}
	s.m.AddNode(nn) // replaces the entry under the map's own lock
	s.indexNode(nn)
	s.nodes.maybeCompact()
	s.nodeVer[n.ID] = ver
	s.changeSeq++
	s.changes = append(s.changes, Change{
		Seq: s.changeSeq, NodeID: n.ID, Tags: tags.Clone(), Ver: ver,
		Pos: s.m.NodePosition(nn),
	})
	// Compact lazily at 2x the cap so a hot write path past the cap pays
	// an O(cap) copy once per cap writes, not on every write; between
	// compactions the log retains AT LEAST the last changeLogCap changes.
	if len(s.changes) > 2*changeLogCap {
		s.changes = append([]Change(nil), s.changes[len(s.changes)-changeLogCap:]...)
	}
	// Wake any log consumer; the 1-buffered send coalesces and never blocks.
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// canonicalTags renders a tag set in a canonical order for deterministic
// equal-version conflict resolution.
func canonicalTags(t osm.Tags) string {
	keys := make([]string, 0, len(t))
	for k := range t {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte(0)
		b.WriteString(t[k])
		b.WriteByte(0)
	}
	return b.String()
}

// newLogID draws a fresh change-log incarnation id: random (uniqueness
// across process restarts is the whole point), never zero (zero is the
// pre-incarnation wire value).
func newLogID() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Fallback: a process-local counter still distinguishes in-process
		// restarts, the common test scenario.
		return logIDFallback.Add(1)
	}
	id := binary.LittleEndian.Uint64(b[:])
	if id == 0 {
		id = 1
	}
	return id
}

var logIDFallback atomic.Uint64

// LogID returns the change log's incarnation id (stable for the store's
// lifetime, fresh on every construction).
func (s *Store) LogID() uint64 { return s.logID }

// ChangeNotify returns the change-log wakeup channel: a 1-buffered signal
// that receives after every log append (coalesced — one pending signal may
// cover many appends). Consumers treat a receive as "the head may have
// moved" and drain via ChangesSince.
func (s *Store) ChangeNotify() <-chan struct{} { return s.notify }

// ChangeSeq returns the head position of the inventory-update log: the
// sequence number of the most recent logged change (0 = none yet). Two
// replicas reporting the same ChangeSeq after anti-entropy hold the same
// logged content.
func (s *Store) ChangeSeq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.changeSeq
}

// FirstChangeSeq returns the oldest sequence number still retained in the
// log (0 when the log is empty).
func (s *Store) FirstChangeSeq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.changes) == 0 {
		return 0
	}
	return s.changes[0].Seq
}

// ChangesSince returns up to limit logged changes with Seq > since, oldest
// first (limit <= 0 means all retained). The returned slice is a copy; the
// Tags maps are shared and must be treated as immutable.
func (s *Store) ChangesSince(since uint64, limit int) []Change {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.changes) == 0 {
		return nil
	}
	// The log is contiguous: changes[i].Seq == changes[0].Seq + i. The
	// delta stays in uint64 until range-checked — `since` is wire input
	// (an absurd cursor must yield an empty answer, not an overflowed
	// negative slice index).
	var from int
	if since >= s.changes[0].Seq {
		delta := since - s.changes[0].Seq + 1
		if delta >= uint64(len(s.changes)) {
			return nil
		}
		from = int(delta)
	}
	out := s.changes[from:]
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return append([]Change(nil), out...)
}

// RemoveNode removes an unreferenced node from map and indexes.
func (s *Store) RemoveNode(id osm.NodeID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.m.Node(id)
	if n == nil {
		return false
	}
	if err := s.m.RemoveNode(id); err != nil {
		return false
	}
	s.unindexNode(n)
	s.nodes.maybeCompact()
	return true
}

// NodesInRect returns nodes whose position falls in r.
func (s *Store) NodesInRect(r geo.Rect) []*osm.Node {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*osm.Node
	s.nodes.search(r, func(_ geo.Rect, id osm.NodeID) bool {
		if n := s.m.Node(id); n != nil {
			out = append(out, n)
		}
		return true
	})
	return out
}

// NodeHit is a proximity query result.
type NodeHit struct {
	Node           *osm.Node
	DistanceMeters float64
}

// NearestNodes returns up to k nodes closest to ll within maxMeters
// (<=0 for unbounded), closest first.
func (s *Store) NearestNodes(ll geo.LatLng, k int, maxMeters float64) []NodeHit {
	s.mu.RLock()
	defer s.mu.RUnlock()
	nbrs := s.nodes.nearest(ll, k, maxMeters)
	out := make([]NodeHit, 0, len(nbrs))
	for _, nb := range nbrs {
		if n := s.m.Node(nb.Item); n != nil {
			out = append(out, NodeHit{Node: n, DistanceMeters: nb.DistanceMeters})
		}
	}
	return out
}

// NearestNodesWhere returns up to k nodes satisfying pred closest to ll.
// It expands the candidate pool geometrically until enough matches are
// found or the pool is exhausted.
func (s *Store) NearestNodesWhere(ll geo.LatLng, k int, maxMeters float64, pred func(*osm.Node) bool) []NodeHit {
	for pool := k * 4; ; pool *= 4 {
		hits := s.NearestNodes(ll, pool, maxMeters)
		var out []NodeHit
		for _, h := range hits {
			if pred(h.Node) {
				out = append(out, h)
				if len(out) == k {
					return out
				}
			}
		}
		if len(hits) < pool {
			return out // pool exhausted
		}
	}
}

// Snap is a snap-to-way result: the closest point on the closest way
// segment, the way, and the nearer way endpoint node of that segment.
type Snap struct {
	Way            *osm.Way
	Position       geo.LatLng
	DistanceMeters float64
	// NodeID is the closer endpoint of the snapped segment, useful as a
	// routing graph entry point.
	NodeID osm.NodeID
}

// SnapToWay projects ll onto the nearest way within maxMeters.
// It returns false if no way is near.
func (s *Store) SnapToWay(ll geo.LatLng, maxMeters float64) (Snap, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	// Candidate segments: those whose bounds fall within the search box.
	search := pointRect(ll).ExpandedMeters(maxMeters)
	best := Snap{DistanceMeters: maxMeters + 1}
	found := false
	s.segs.search(search, func(_ geo.Rect, ref SegmentRef) bool {
		w := s.m.Way(ref.WayID)
		if w == nil || ref.Index+1 >= len(w.NodeIDs) {
			return true
		}
		na := s.m.Node(w.NodeIDs[ref.Index])
		nb := s.m.Node(w.NodeIDs[ref.Index+1])
		if na == nil || nb == nil {
			return true
		}
		pa := s.m.NodePosition(na)
		pb := s.m.NodePosition(nb)
		cp, t := geo.ClosestPointOnSegment(ll, pa, pb)
		d := geo.DistanceMeters(ll, cp)
		if d < best.DistanceMeters {
			nodeID := na.ID
			if t > 0.5 {
				nodeID = nb.ID
			}
			best = Snap{Way: w, Position: cp, DistanceMeters: d, NodeID: nodeID}
			found = true
		}
		return true
	})
	if !found || best.DistanceMeters > maxMeters {
		return Snap{}, false
	}
	return best, true
}

// ForEachSegmentNear calls fn for every way segment whose bounding box
// lies within maxMeters of ll, passing the owning way and the segment's
// endpoint positions. Used by the map matcher to enumerate candidate ways.
func (s *Store) ForEachSegmentNear(ll geo.LatLng, maxMeters float64, fn func(wayID osm.WayID, a, b geo.LatLng)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	search := pointRect(ll).ExpandedMeters(maxMeters)
	s.segs.search(search, func(_ geo.Rect, ref SegmentRef) bool {
		w := s.m.Way(ref.WayID)
		if w == nil || ref.Index+1 >= len(w.NodeIDs) {
			return true
		}
		na := s.m.Node(w.NodeIDs[ref.Index])
		nb := s.m.Node(w.NodeIDs[ref.Index+1])
		if na == nil || nb == nil {
			return true
		}
		fn(w.ID, s.m.NodePosition(na), s.m.NodePosition(nb))
		return true
	})
}

// TokenPostings returns the node IDs whose tags contain the token, in
// ascending ID order. The returned slice is the caller's to keep.
func (s *Store) TokenPostings(token string) []osm.NodeID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]osm.NodeID(nil), s.inv[strings.ToLower(token)]...)
}

// ForEachPostingMatch merges the sorted posting lists of the given
// (already-tokenized, lowercase) tokens and calls fn once per distinct
// matching node, ascending by ID, with the number of token lists
// containing it. This is the retrieval core of search and forward geocode:
// a k-way merge over the shared lists in place of the map[NodeID]int the
// per-query intersection used to allocate and rehash.
//
// done, when non-nil, runs once after the last match under the same read
// lock, so what fn ranked and what done builds from the map see one state:
// no store write lands in between.
func (s *Store) ForEachPostingMatch(tokens []string, fn func(id osm.NodeID, hits int), done func()) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if done != nil {
		defer done()
	}
	lists := make([][]osm.NodeID, 0, len(tokens))
	for _, tok := range tokens {
		if lst := s.inv[tok]; len(lst) > 0 {
			lists = append(lists, lst)
		}
	}
	if len(lists) == 0 {
		return
	}
	idx := make([]int, len(lists))
	for {
		var min osm.NodeID
		found := false
		for i, l := range lists {
			if idx[i] < len(l) && (!found || l[idx[i]] < min) {
				min, found = l[idx[i]], true
			}
		}
		if !found {
			return
		}
		hits := 0
		for i, l := range lists {
			if idx[i] < len(l) && l[idx[i]] == min {
				hits++
				idx[i]++
			}
		}
		fn(min, hits)
	}
}

// TokenCount returns the number of distinct indexed tokens (the internal
// portal posting list is bookkeeping, not a searchable token).
func (s *Store) TokenCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := len(s.inv)
	if _, ok := s.inv[portalToken]; ok {
		n--
	}
	return n
}

// NodeCount returns the number of indexed nodes.
func (s *Store) NodeCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nodes.len()
}

// PortalNodeIDs returns the IDs of every node tagged as a portal,
// ascending. It reads the reserved portal posting list, so it is O(answer)
// — no map walk — and comes straight off the snapshot on an attached
// server.
func (s *Store) PortalNodeIDs() []osm.NodeID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]osm.NodeID(nil), s.inv[portalToken]...)
}

// Tokenize splits free text into lowercase alphanumeric tokens.
func Tokenize(text string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, strings.ToLower(cur.String()))
			cur.Reset()
		}
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return out
}

// TokenizeTags extracts searchable tokens from a tag set: all values, plus
// the keys of flag-like tags. Structural keys (IDs, coordinates) are
// skipped.
func TokenizeTags(tags osm.Tags) []string {
	seen := make(map[string]struct{})
	var out []string
	add := func(tok string) {
		if _, ok := seen[tok]; ok {
			return
		}
		seen[tok] = struct{}{}
		out = append(out, tok)
	}
	for k, v := range tags {
		if k == osm.TagPortalID || k == osm.TagLevel {
			continue
		}
		for _, tok := range Tokenize(v) {
			add(tok)
		}
		// Category keys (amenity=cafe etc.) are searchable by key too.
		switch k {
		case osm.TagAmenity, osm.TagShop, osm.TagBuilding, osm.TagProduct:
			for _, tok := range Tokenize(k) {
				add(tok)
			}
		}
	}
	return out
}
