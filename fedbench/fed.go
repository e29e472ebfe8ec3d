package main

import (
	"context"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"openflame/internal/client"
	"openflame/internal/discovery"
	"openflame/internal/dns"
	"openflame/internal/mapserver"
	"openflame/internal/osm"
	"openflame/internal/worldgen"
)

// member is one map server serving HTTP on loopback.
type member struct {
	name   string
	srv    *mapserver.Server
	hs     *http.Server
	url    string
	served chan struct{} // closed when hs.Serve has returned
}

// stop closes the server and its connections and waits for Serve.
func (m *member) stop() {
	m.hs.Close()
	<-m.served
}

// federation is a complete deployment: a two-level DNS tree served over
// UDP on loopback, a registry writing the spatial zone, one map server per
// map behind a real http.Server, and one client.
type federation struct {
	cm        *cityModel
	dnsRoot   *dns.Server
	dnsLoc    *dns.Server
	registry  *discovery.Registry
	world     *member
	stores    []*member // aligned with cm.stores
	res       *dns.Resolver
	disc      *discovery.Client
	cl        *client.Client
	transport *http.Transport
}

func (f *federation) members() []*member { return append([]*member{f.world}, f.stores...) }

// serverConfig is flame-server's default configuration: contraction
// hierarchies on, a 4096-entry query cache, admission at 4×GOMAXPROCS
// in-flight with an equal queue, default body caps and watch settings.
func serverConfig(name string, m *osm.Map) mapserver.Config {
	return mapserver.Config{
		Name:              name,
		Map:               m,
		UseCH:             true,
		QueryCacheEntries: 4096,
		MaxInFlight:       4 * runtime.GOMAXPROCS(0),
		QueueWait:         mapserver.DefaultQueueWait,
		RetryAfter:        mapserver.DefaultRetryAfter,
		MaxBodyBytes:      mapserver.DefaultMaxBodyBytes,
		MaxBatchBodyBytes: mapserver.DefaultMaxBatchBodyBytes,
		WatchPingInterval: mapserver.DefaultWatchPingInterval,
	}
}

// serve starts srv's handler, wrapped by the tracer, on a loopback port
// with flame-server's ingest timeouts.
func serve(name string, srv *mapserver.Server, tr *tracer) (*member, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m := &member{name: name, srv: srv, url: "http://" + ln.Addr().String(), served: make(chan struct{})}
	m.hs = &http.Server{
		Handler:           tr.wrapHandler(srv.Handler(), srv),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		defer close(m.served)
		m.hs.Serve(ln)
	}()
	return m, nil
}

// newDNSTree serves a root zone delegating the spatial suffix (A and SRV
// glue, since the child listens on an unprivileged port) and the spatial
// zone itself, each on its own UDP/TCP loopback server.
func newDNSTree() (root, loc *dns.Server, locZone *dns.Zone, err error) {
	locZone = dns.NewZone(discovery.DefaultSuffix)
	loc, err = dns.NewServer(locZone, "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	_, portStr, err := net.SplitHostPort(loc.Addr())
	if err != nil {
		loc.Close()
		return nil, nil, nil, err
	}
	port, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		loc.Close()
		return nil, nil, nil, err
	}
	ns := "ns." + discovery.DefaultSuffix
	rootZone := dns.NewZone("flame.arpa.")
	for _, rr := range []dns.RR{
		{Name: discovery.DefaultSuffix, Type: dns.TypeNS, TTL: 300, Target: ns},
		{Name: ns, Type: dns.TypeA, TTL: 300, IP: net.IPv4(127, 0, 0, 1)},
		{Name: ns, Type: dns.TypeSRV, TTL: 300, SRV: &dns.SRVData{Port: uint16(port), Target: ns}},
	} {
		if err := rootZone.Add(rr); err != nil {
			loc.Close()
			return nil, nil, nil, err
		}
	}
	root, err = dns.NewServer(rootZone, "127.0.0.1:0")
	if err != nil {
		loc.Close()
		return nil, nil, nil, err
	}
	return root, loc, locZone, nil
}

// buildFederation generates the world and stands the federation up. It
// returns the wall time of set-up: world generation until every server
// is built, its hierarchy is ready, it is registered, and warm (one call
// of each service) has succeeded through the client.
func buildFederation(spec worldSpec, tr *tracer, warm func(*federation) error) (*federation, time.Duration, error) {
	start := time.Now()
	world := worldgen.GenWorld(spec.params())
	cm, err := newCityModel(spec, world)
	if err != nil {
		return nil, 0, err
	}
	f := &federation{cm: cm}
	var locZone *dns.Zone
	f.dnsRoot, f.dnsLoc, locZone, err = newDNSTree()
	if err != nil {
		return nil, 0, err
	}
	f.registry = discovery.NewRegistry(locZone, discovery.DefaultSuffix)
	add := func(cfg mapserver.Config) (*member, error) {
		srv, err := mapserver.New(cfg)
		if err != nil {
			return nil, err
		}
		if err := srv.WaitCH(context.Background()); err != nil {
			return nil, err
		}
		m, err := serve(cfg.Name, srv, tr)
		if err != nil {
			return nil, err
		}
		if err := f.registry.Register(srv.Info(), m.url); err != nil {
			m.stop()
			return nil, err
		}
		return m, nil
	}
	if f.world, err = add(serverConfig("world-map", world.Outdoor)); err != nil {
		f.close()
		return nil, 0, err
	}
	for _, sm := range cm.stores {
		cfg := serverConfig(sm.name, sm.bundle.Map)
		cfg.Alignment = sm.ga
		cfg.Beacons = sm.bundle.Beacons
		cfg.Fiducials = sm.bundle.Fiducials
		cfg.Landmarks = sm.bundle.Landmarks
		m, err := add(cfg)
		if err != nil {
			f.close()
			return nil, 0, err
		}
		f.stores = append(f.stores, m)
	}
	f.res = dns.NewResolver(&tracingExchanger{t: tr}, []dns.RootHint{{Name: "ns.flame.arpa.", Addr: f.dnsRoot.Addr()}})
	f.disc = discovery.NewClient(f.res, discovery.DefaultSuffix)
	f.transport = http.DefaultTransport.(*http.Transport).Clone()
	f.transport.DialContext = tr.dialContext()
	f.cl = client.New(f.disc, &http.Client{Transport: &tracingRT{t: tr, inner: f.transport}})
	f.cl.WorldURL = f.world.url
	if err := warm(f); err != nil {
		f.close()
		return nil, 0, err
	}
	return f, time.Since(start), nil
}

// purgeQueryCaches empties every server's query cache the only way the
// program allows: a write (here, of a node's unchanged tags) advances the
// map generation and purges older entries.
func (f *federation) purgeQueryCaches() {
	purge := func(srv *mapserver.Server, m *osm.Map) {
		m.Nodes(func(n *osm.Node) bool {
			if n.Tags.Get(osm.TagName) == "" {
				return true
			}
			srv.ApplyInventoryUpdate(n.ID, n.Tags.Clone())
			return false
		})
	}
	purge(f.world.srv, f.cm.world.Outdoor)
	for i, m := range f.stores {
		purge(m.srv, f.cm.stores[i].bundle.Map)
	}
}

func (f *federation) close() {
	if f.world != nil {
		f.world.stop()
	}
	for _, m := range f.stores {
		m.stop()
	}
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
	if f.dnsRoot != nil {
		f.dnsRoot.Close()
	}
	if f.dnsLoc != nil {
		f.dnsLoc.Close()
	}
}
