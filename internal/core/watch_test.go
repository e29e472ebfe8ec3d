package core

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"openflame/internal/client"
	"openflame/internal/discovery"
	"openflame/internal/mapserver"
	"openflame/internal/osm"
	"openflame/internal/worldgen"
)

// nextWatchEvent pulls the next application-visible event off a watch
// within the deadline.
func nextWatchEvent(t *testing.T, w *client.Watch, timeout time.Duration) client.WatchEvent {
	t.Helper()
	select {
	case ev, ok := <-w.Events():
		if !ok {
			t.Fatal("watch event channel closed")
		}
		return ev
	case <-time.After(timeout):
		t.Fatal("no watch event within deadline")
	}
	panic("unreachable")
}

// renameNode applies one inventory write on a server.
func renameNode(t *testing.T, srv *mapserver.Server, n *osm.Node, name string) {
	t.Helper()
	tags := n.Tags.Clone()
	tags[osm.TagName] = name
	if !srv.ApplyInventoryUpdate(n.ID, tags) {
		t.Fatalf("rename to %q refused", name)
	}
}

// TestWatchV2FederatedDeltas is the tentpole's end-to-end happy path: a
// WatchV2 subscription through discovery delivers an init snapshot and
// then exactly the net deltas of each write, with session marks feeding
// back into the caller's session.
func TestWatchV2FederatedDeltas(t *testing.T) {
	w := worldgen.GenWorld(worldgen.DefaultWorldParams())
	f, err := NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv, err := mapserver.New(mapserver.Config{Name: "city-0", Map: cloneMap(t, w.Outdoor)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddReplica(srv, "city"); err != nil {
		t.Fatal(err)
	}
	node := firstNamedNode(srv.Store().Map())
	pos := srv.Store().Map().NodePosition(node)
	renameNode(t, srv, node, "Xyzwatch One")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess := client.NewSession()
	c := f.NewClient()
	watch, err := c.WatchV2(ctx, "xyzwatch", pos, 5, client.WithSession(sess))
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Stop()

	init := nextWatchEvent(t, watch, 5*time.Second)
	if !init.Init || len(init.Results) != 1 || init.Results[0].Name != "Xyzwatch One" {
		t.Fatalf("init = %+v, want the seeded result", init)
	}
	if ms := sess.Marks()["city"]; len(ms) != 1 || ms[0].Origin != "city-0" {
		t.Fatalf("session marks after init = %+v", ms)
	}

	// A write that keeps the node matching surfaces as an update...
	renameNode(t, srv, node, "Xyzwatch Two")
	up := nextWatchEvent(t, watch, 5*time.Second)
	if up.Init || len(up.Updated) != 1 || up.Updated[0].Name != "Xyzwatch Two" || len(up.Removed) != 0 {
		t.Fatalf("update delta = %+v", up)
	}
	if up.Mark == nil || up.Mark.Seq < 2 {
		t.Fatalf("delta mark = %+v, want post-apply mark", up.Mark)
	}

	// ...and one that stops it matching surfaces as a removal.
	renameNode(t, srv, node, "Quiet Corner")
	rm := nextWatchEvent(t, watch, 5*time.Second)
	if len(rm.Removed) != 1 || rm.Removed[0] != int64(node.ID) || len(rm.Updated) != 0 {
		t.Fatalf("removal delta = %+v", rm)
	}
}

// watchOpens is an http.RoundTripper that reports the host of every watch
// stream a server accepted. A server answers 200 only after it has
// subscribed and taken its init snapshot, so a test that waits here orders
// its next write after that snapshot without sleeping.
type watchOpens struct {
	next   http.RoundTripper
	opened chan string
}

func (w *watchOpens) RoundTrip(req *http.Request) (*http.Response, error) {
	res, err := w.next.RoundTrip(req)
	if err == nil && res.StatusCode == http.StatusOK && req.URL.Path == "/v1/watch" {
		select {
		case w.opened <- req.URL.Host:
		default:
		}
	}
	return res, err
}

// nextWatchOpen returns the host of the next accepted watch stream.
func nextWatchOpen(t *testing.T, opened <-chan string, timeout time.Duration) string {
	t.Helper()
	select {
	case host := <-opened:
		return host
	case <-time.After(timeout):
		t.Fatal("no watch stream opened within deadline")
	}
	panic("unreachable")
}

// watchReplicas stands up a two-member replica set with a sentinel write
// synced to both, then opens a watch and returns it with its init event
// resolved into (serving handle, sibling handle). opened reports every
// later watch stream a server accepts.
func watchReplicas(t *testing.T) (f *Federation, c *client.Client, watch *client.Watch, node *osm.Node, serving, sibling *ServerHandle, opened <-chan string) {
	t.Helper()
	w := worldgen.GenWorld(worldgen.DefaultWorldParams())
	f, err := NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	handles := make([]*ServerHandle, 2)
	for i := range handles {
		srv, err := mapserver.New(mapserver.Config{
			Name: fmt.Sprintf("city-%d", i),
			Map:  cloneMap(t, w.Outdoor),
		})
		if err != nil {
			t.Fatal(err)
		}
		if handles[i], err = f.AddReplica(srv, "city"); err != nil {
			t.Fatal(err)
		}
	}
	node = firstNamedNode(handles[0].Server.Store().Map())
	pos := handles[0].Server.Store().Map().NodePosition(node)
	renameNode(t, handles[0].Server, node, "Xyzfail One")
	if _, err := f.SyncReplicas(context.Background()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	// Buffered past the few streams a test opens, so the transport never
	// blocks on a report nobody is waiting for.
	opens := &watchOpens{next: http.DefaultTransport, opened: make(chan string, 8)}
	c = client.New(discovery.NewClient(f.NewResolver(), discovery.DefaultSuffix), &http.Client{Transport: opens})
	watch, err = c.WatchV2(ctx, "xyzfail", pos, 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(watch.Stop)

	init := nextWatchEvent(t, watch, 5*time.Second)
	if !init.Init || len(init.Results) != 1 {
		t.Fatalf("init = %+v", init)
	}
	serving, sibling = handles[0], handles[1]
	if init.Server == sibling.Server.Name() {
		serving, sibling = sibling, serving
	}
	if init.Server != serving.Server.Name() {
		t.Fatalf("init from unknown server %q", init.Server)
	}
	nextWatchOpen(t, opens.opened, 5*time.Second) // the serving stream
	return f, c, watch, node, serving, sibling, opens.opened
}

// TestWatchV2FailoverResumesOnSibling is the failover acceptance pin: the
// serving replica dies mid-stream and the watch resumes on its sibling
// with no lost and no duplicated deltas. The sibling holds a different
// log incarnation, so the resume is a server-side re-snapshot; the
// client diffs it away (state was in sync at the kill, and which replica
// answers is not content) and the next thing the application sees is the
// first post-failover write. The write waits for the sibling's stream, so
// the re-snapshot always precedes it.
func TestWatchV2FailoverResumesOnSibling(t *testing.T) {
	f, _, watch, node, serving, sibling, opened := watchReplicas(t)

	if err := f.RemoveServer(serving.Server.Name()); err != nil {
		t.Fatal(err)
	}
	if host := nextWatchOpen(t, opened, 10*time.Second); "http://"+host != sibling.URL {
		t.Fatalf("watch resumed on %s, want the sibling %s", host, sibling.URL)
	}
	renameNode(t, sibling.Server, node, "Xyzfail Two")

	ev := nextWatchEvent(t, watch, 10*time.Second)
	if ev.Server != sibling.Server.Name() {
		t.Fatalf("post-failover event from %q, want %q", ev.Server, sibling.Server.Name())
	}
	if len(ev.Updated) != 1 || ev.Updated[0].Name != "Xyzfail Two" || len(ev.Removed) != 0 {
		t.Fatalf("post-failover delta = %+v, want exactly the new write", ev)
	}
}

// TestWatchV2ResnapshotReconcilesDivergence pins the dead-log discipline
// end to end: the serving replica takes a write its sibling never pulled,
// then dies. The sibling cannot vouch for the cursor (different log
// incarnation), so it re-snapshots; the client reconciles the snapshot
// against its materialized state and surfaces the divergence as an
// explicit delta — the watcher converges on the surviving replica's
// truth instead of silently skipping the gap.
func TestWatchV2ResnapshotReconcilesDivergence(t *testing.T) {
	f, _, watch, node, serving, sibling, _ := watchReplicas(t)

	// The origin-only write reaches the stream...
	renameNode(t, serving.Server, node, "Xyzfail Ahead")
	ev := nextWatchEvent(t, watch, 5*time.Second)
	if len(ev.Updated) != 1 || ev.Updated[0].Name != "Xyzfail Ahead" {
		t.Fatalf("pre-kill delta = %+v", ev)
	}
	// ...but never the sibling: the write dies with the server.
	if err := f.RemoveServer(serving.Server.Name()); err != nil {
		t.Fatal(err)
	}

	ev = nextWatchEvent(t, watch, 10*time.Second)
	if ev.Server != sibling.Server.Name() {
		t.Fatalf("post-failover event from %q, want %q", ev.Server, sibling.Server.Name())
	}
	if len(ev.Updated) != 1 || ev.Updated[0].Name != "Xyzfail One" || len(ev.Removed) != 0 {
		t.Fatalf("reconciliation delta = %+v, want revert to the sibling's truth", ev)
	}
}
