package main

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"openflame/internal/client"
	"openflame/internal/geo"
	"openflame/internal/mapserver"
	"openflame/internal/worldgen"
)

// writeRadius bounds which stores are written: those within it of store
// 0's entrance, so one watch centred there covers every written shelf
// inside the client's 1 km cap.
const writeRadius = 700.0

// syncCadence is how often each follower pulls /v1/changes: flame-server's
// default -sync-interval.
const syncCadence = 5 * time.Second

type writeRec struct {
	seq        int
	node       nodeRef
	start, ack int64
}

// nodeRef names one written shelf.
type nodeRef struct{ store, shelf int }

// watchQuery matches every shelf ("<product> shelf"), and watchLimit lets
// a store's whole inventory into the standing result set, so writes can
// rotate over all shelves and a shelf is rewritten only after every other
// written shelf was: two writes to one shelf in quick succession would be
// coalesced into one delta by design.
const (
	watchQuery = "shelf"
	watchLimit = 25
)

type delivery struct {
	seq int
	at  int64
}

// follower is an unregistered replica of one written store that pulls the
// store's change log through SyncOnce on a fixed cadence.
type follower struct {
	srv    *mapserver.Server
	sy     *mapserver.Syncer
	leader *member
	store  int

	mu      sync.Mutex
	rounds  []float64 // ms
	applied []float64
	errs    int
}

// churnRig drives the write side: stamped inventory writes to the written
// stores, watch streams on the written query, and the followers.
type churnRig struct {
	f       *federation
	tr      *tracer
	written []int
	center  geo.LatLng

	cancel  context.CancelFunc
	watches []*client.Watch
	wg      sync.WaitGroup

	mu         sync.Mutex
	deliveries [][]delivery
	inits      []map[string]bool
	writes     []writeRec

	followers []*follower
	folStop   chan struct{}
	folOnce   sync.Once
	folWG     sync.WaitGroup
	plain     *http.Transport

	evals0, dropped0 uint64
}

func writtenStores(cm *cityModel) []int {
	var out []int
	for i, sm := range cm.stores {
		if geo.DistanceMeters(sm.entrance, cm.stores[0].entrance) <= writeRadius {
			out = append(out, i)
		}
	}
	return out
}

// startChurn opens the watch streams and waits for each to deliver its
// initial snapshot from every written store, then starts the followers.
func startChurn(f *federation, tr *tracer, watchers int) (*churnRig, error) {
	r := &churnRig{f: f, tr: tr, written: writtenStores(f.cm), center: f.cm.stores[0].entrance}
	r.deliveries = make([][]delivery, watchers)
	r.inits = make([]map[string]bool, watchers)
	for _, s := range r.written {
		st := f.stores[s].srv.WatchStats()
		r.evals0 += st.Evals
		r.dropped0 += st.Dropped
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	for i := 0; i < watchers; i++ {
		r.inits[i] = map[string]bool{}
		w, err := f.cl.WatchV2(context.WithValue(ctx, watcherKey{}, i), watchQuery, r.center, watchLimit)
		if err != nil {
			r.stop()
			return nil, err
		}
		r.watches = append(r.watches, w)
		r.wg.Add(1)
		go r.consume(i, w)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !r.subscribed() {
		if time.Now().After(deadline) {
			r.stop()
			return nil, fmt.Errorf("watch streams did not deliver their initial snapshots")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Followers replicate copies of the written stores' maps, generated
	// again from the same parameters so their node ids match.
	copyWorld := worldgen.GenWorld(f.cm.spec.params())
	r.plain = http.DefaultTransport.(*http.Transport).Clone()
	hc := &http.Client{Transport: r.plain}
	r.folStop = make(chan struct{})
	for _, s := range r.written {
		sm := f.cm.stores[s]
		srv, err := mapserver.New(mapserver.Config{Name: sm.name + "-follower", Map: copyWorld.Stores[s].Map, Alignment: sm.ga})
		if err != nil {
			r.stop()
			return nil, err
		}
		sy := mapserver.NewSyncer(srv, hc)
		sy.SetPeers([]string{f.stores[s].url})
		fo := &follower{srv: srv, sy: sy, leader: f.stores[s], store: s}
		r.followers = append(r.followers, fo)
		r.folWG.Add(1)
		go r.runFollower(fo)
	}
	return r, nil
}

func (r *churnRig) subscribed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, in := range r.inits {
		for _, s := range r.written {
			if !in[r.f.stores[s].name] {
				return false
			}
		}
	}
	return true
}

func (r *churnRig) consume(i int, w *client.Watch) {
	defer r.wg.Done()
	for ev := range w.Events() {
		at := r.tr.now()
		r.mu.Lock()
		if ev.Init {
			r.inits[i][ev.Server] = true
		}
		for _, res := range ev.Updated {
			if v, ok := res.Tags[seqTag]; ok {
				if seq, err := strconv.Atoi(v); err == nil {
					r.deliveries[i] = append(r.deliveries[i], delivery{seq: seq, at: at})
				}
			}
		}
		r.mu.Unlock()
	}
}

func (r *churnRig) runFollower(fo *follower) {
	defer r.folWG.Done()
	t := time.NewTicker(syncCadence)
	defer t.Stop()
	for {
		select {
		case <-r.folStop:
			return
		case <-t.C:
		}
		fo.round()
	}
}

func (fo *follower) round() {
	start := time.Now()
	n, err := fo.sy.SyncOnce(context.Background())
	d := durMS(time.Since(start))
	fo.mu.Lock()
	fo.rounds = append(fo.rounds, d)
	fo.applied = append(fo.applied, float64(n))
	if err != nil {
		fo.errs++
	}
	fo.mu.Unlock()
}

// nodeOf maps a write to its shelf: round robin over the written stores,
// then over each store's shelves.
func (r *churnRig) nodeOf(seq int) nodeRef {
	n := len(r.written)
	s := r.written[seq%n]
	return nodeRef{store: s, shelf: (seq / n) % len(r.f.cm.stores[s].shelves)}
}

// write applies one stamped inventory update: the shelf keeps its tags
// and gains the write's sequence number.
func (r *churnRig) write(seq int) bool {
	node := r.nodeOf(seq)
	sh := r.f.cm.stores[node.store].shelves[node.shelf]
	tags := sh.tags.Clone()
	tags[seqTag] = strconv.Itoa(seq)
	start := r.tr.now()
	ok := r.f.stores[node.store].srv.ApplyInventoryUpdate(sh.id, tags)
	ack := r.tr.now()
	if ok {
		r.mu.Lock()
		r.writes = append(r.writes, writeRec{seq: seq, node: node, start: start, ack: ack})
		r.mu.Unlock()
	}
	return ok
}

// runWrites issues writes open-loop at rate for length; sequence numbers
// start at first.
func (r *churnRig) runWrites(rate float64, length time.Duration, first int) []sample {
	interval := time.Duration(float64(time.Second) / rate)
	return openLoop(realClock{base: time.Now()}, 1, interval, length, func(i int) bool { return r.write(first + i) })
}

// churnResult is what the write side measured and verified.
type churnResult struct {
	writes        int
	failedWrites  int // writes not delivered exactly once to every watcher
	finalStateBad int // watchers not ending on every shelf's last write
	deltas        []float64
	pushes        []float64
	clientSide    []float64
	writeMS       []float64
	rounds        []float64
	applied       []float64
	lagEnd        uint64
	followerBad   int
	syncErrs      int
	evalsPerWrite float64
	dropped       float64
	problems      []string
}

// finish waits for the deltas of every acknowledged write, runs a final
// sync round, checks the watch and sync contracts, and stops everything.
func (r *churnRig) finish() churnResult {
	r.mu.Lock()
	writes := append([]writeRec(nil), r.writes...)
	r.mu.Unlock()
	want := len(writes)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		r.mu.Lock()
		for _, d := range r.deliveries {
			if len(d) < want {
				done = false
			}
		}
		r.mu.Unlock()
		if done {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.stopFollowers()
	for _, fo := range r.followers {
		fo.round()
	}
	res := churnResult{writes: want}
	for _, fo := range r.followers {
		_, seq := fo.srv.SyncPosition(fo.leader.name)
		if head := fo.leader.srv.ChangeSeq(); head > seq {
			res.lagEnd += head - seq
		}
		for _, sh := range r.f.cm.stores[fo.store].shelves {
			lt := fo.leader.srv.Store().Map().Node(sh.id).Tags
			ft := fo.srv.Store().Map().Node(sh.id).Tags
			if lt.Get(seqTag) != ft.Get(seqTag) {
				res.followerBad++
				res.problems = append(res.problems, fmt.Sprintf("follower of %s ends %s at write %q, leader at %q",
					fo.leader.name, sh.product, ft.Get(seqTag), lt.Get(seqTag)))
			}
		}
		res.rounds = append(res.rounds, fo.rounds...)
		res.applied = append(res.applied, fo.applied...)
		res.syncErrs += fo.errs
	}
	var evals, dropped uint64
	for _, s := range r.written {
		st := r.f.stores[s].srv.WatchStats()
		evals += st.Evals
		dropped += st.Dropped
	}
	if want > 0 {
		res.evalsPerWrite = float64(evals-r.evals0) / float64(want)
	}
	res.dropped = float64(dropped - r.dropped0)
	r.stop()

	ack := map[int]int64{}
	lastOf := map[nodeRef]int{} // shelf → last written seq
	for _, w := range writes {
		ack[w.seq] = w.ack
		res.writeMS = append(res.writeMS, ms(w.ack-w.start))
		if w.seq > lastOf[w.node] {
			lastOf[w.node] = w.seq
		}
	}
	bad := map[int]bool{}
	r.tr.mu.Lock()
	defer r.tr.mu.Unlock()
	for wi, ds := range r.deliveries {
		count := map[int]int{}
		last := map[nodeRef]int{} // shelf → last delivered seq
		for _, d := range ds {
			count[d.seq]++
			a, ok := ack[d.seq]
			if !ok {
				continue
			}
			if count[d.seq] == 1 {
				res.deltas = append(res.deltas, ms(max(0, d.at-a)))
				if p, ok := r.tr.pushes[wi][d.seq]; ok {
					res.pushes = append(res.pushes, ms(max(0, p-a)))
					res.clientSide = append(res.clientSide, ms(max(0, d.at-p)))
				}
			}
			last[r.nodeOf(d.seq)] = d.seq
		}
		for _, w := range writes {
			if count[w.seq] != 1 {
				bad[w.seq] = true
			}
		}
		for n, seq := range lastOf {
			if last[n] != seq {
				res.finalStateBad++
				res.problems = append(res.problems, fmt.Sprintf("watcher %d ends %s shelf %d at write %d, last write %d",
					wi, r.f.stores[n.store].name, n.shelf, last[n], seq))
			}
		}
	}
	res.failedWrites = len(bad)
	if len(bad) > 0 {
		seqs := make([]int, 0, len(bad))
		for s := range bad {
			seqs = append(seqs, s)
		}
		sort.Ints(seqs)
		if len(seqs) > 5 {
			seqs = seqs[:5]
		}
		res.problems = append(res.problems, fmt.Sprintf("%d writes not delivered exactly once to every watcher (first: %v)", len(bad), seqs))
	}
	return res
}

// acked counts the writes acknowledged within [from, to).
func (r *churnRig) acked(from, to int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, w := range r.writes {
		if w.ack >= from && w.ack < to {
			n++
		}
	}
	return n
}

// stopFollowers ends the followers' sync loops and waits for them.
func (r *churnRig) stopFollowers() {
	r.folOnce.Do(func() {
		if r.folStop != nil {
			close(r.folStop)
		}
	})
	r.folWG.Wait()
}

func (r *churnRig) stop() {
	r.stopFollowers()
	if r.cancel != nil {
		r.cancel()
	}
	for _, w := range r.watches {
		w.Stop()
	}
	r.wg.Wait()
	if r.plain != nil {
		r.plain.CloseIdleConnections()
	}
}
