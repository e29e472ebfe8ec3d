package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"openflame/internal/dns"
	"openflame/internal/mapserver"
	"openflame/internal/wire"
)

// The tracer times the program at its public seams only: a DNS exchanger
// behind the resolver, an HTTP round tripper (and response body) behind
// the client, and an http.Handler around each map server. Nothing inside
// the program is instrumented. Recording happens only while on is set,
// and only for calls whose context carries a callRec (or a watch stream's
// watcher id); everything else passes straight through.

// attemptHeader carries an attempt's id from the benchmark's round tripper
// to the benchmark's handler wrapper, tying a server span to its attempt.
// Only those two wrappers set or read it.
const attemptHeader = "X-Fedbench-Attempt"

// seqTag is the tag every benchmark write stamps with its sequence number,
// so a delta can be matched to the write that caused it.
const seqTag = "fedbench:seq"

type callKey struct{}
type watcherKey struct{}

// callRec is one application call's root span and the child spans tied to
// it through the request context.
type callRec struct {
	kind       int
	start, end int64

	mu       sync.Mutex
	attempts []attemptRec
	dns      []span
}

type attemptRec struct {
	id    uint64
	path  string
	span  span
	bytes int64
}

type handlerRec struct {
	path string
	span span
}

type tracer struct {
	base time.Time
	on   atomic.Bool

	nextID atomic.Uint64
	dials  atomic.Int64

	mu       sync.Mutex
	handlers map[uint64]handlerRec
	dnsAll   []span
	// pushes[w][seq] is when the SSE bytes carrying write seq first
	// reached watcher w.
	pushes []map[int]int64
	// captures holds up to maxCaptures traced request bodies per service
	// path, replayed directly against their server afterwards.
	captures map[string][]capture
}

const maxCaptures = 300

// capture is one traced server request: its body and the server it hit.
type capture struct {
	path string
	body []byte
	srv  *mapserver.Server
}

func newTracer(watchers int) *tracer {
	t := &tracer{base: time.Now(), handlers: map[uint64]handlerRec{}, captures: map[string][]capture{}}
	t.pushes = make([]map[int]int64, watchers)
	for i := range t.pushes {
		t.pushes[i] = map[int]int64{}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func callFrom(ctx context.Context) *callRec {
	c, _ := ctx.Value(callKey{}).(*callRec)
	return c
}

// --- DNS ---

type tracingExchanger struct {
	t     *tracer
	inner dns.UDPExchanger
}

func (e *tracingExchanger) Exchange(addr string, req *dns.Message) (*dns.Message, error) {
	return e.ExchangeContext(context.Background(), addr, req)
}

func (e *tracingExchanger) ExchangeContext(ctx context.Context, addr string, req *dns.Message) (*dns.Message, error) {
	c := callFrom(ctx)
	if !e.t.on.Load() || c == nil {
		return e.inner.ExchangeContext(ctx, addr, req)
	}
	start := e.t.now()
	m, err := e.inner.ExchangeContext(ctx, addr, req)
	s := span{start, e.t.now()}
	c.mu.Lock()
	c.dns = append(c.dns, s)
	c.mu.Unlock()
	e.t.mu.Lock()
	e.t.dnsAll = append(e.t.dnsAll, s)
	e.t.mu.Unlock()
	return m, err
}

// --- HTTP client side ---

type tracingRT struct {
	t     *tracer
	inner http.RoundTripper
}

func (rt *tracingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	t := rt.t
	call := callFrom(req.Context())
	w, watch := req.Context().Value(watcherKey{}).(int)
	if !t.on.Load() || (call == nil && !watch) {
		return rt.inner.RoundTrip(req)
	}
	id := t.nextID.Add(1)
	out := req.Clone(req.Context())
	out.Header.Set(attemptHeader, strconv.FormatUint(id, 10))
	start := t.now()
	res, err := rt.inner.RoundTrip(out)
	a := attemptRec{id: id, path: req.URL.Path, span: span{start: start}}
	if err != nil {
		a.span.end = t.now()
		record(call, a)
		return nil, err
	}
	res.Body = &tracingBody{t: t, inner: res.Body, a: a, call: call, watch: watch, watcher: w}
	return res, nil
}

func record(c *callRec, a attemptRec) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.attempts = append(c.attempts, a)
	c.mu.Unlock()
}

// tracingBody ends its attempt's span when the body is drained or closed,
// and on watch streams notes when each write's stamp first arrives.
type tracingBody struct {
	t     *tracer
	inner io.ReadCloser
	a     attemptRec
	call  *callRec
	done  bool

	watch   bool
	watcher int
	carry   []byte
}

func (b *tracingBody) Read(p []byte) (int, error) {
	n, err := b.inner.Read(p)
	b.a.bytes += int64(n)
	if b.watch && n > 0 {
		b.scan(p[:n])
	}
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *tracingBody) Close() error {
	err := b.inner.Close()
	b.finish()
	return err
}

func (b *tracingBody) finish() {
	if b.done {
		return
	}
	b.done = true
	b.a.span.end = b.t.now()
	record(b.call, b.a)
}

var seqMarker = []byte(`"` + seqTag + `":"`)

// scan finds write stamps in SSE bytes; a stamp split across reads is
// caught by carrying the tail of the previous read.
func (b *tracingBody) scan(p []byte) {
	at := b.t.now()
	buf := append(b.carry, p...)
	for {
		i := bytes.Index(buf, seqMarker)
		if i < 0 {
			break
		}
		rest := buf[i+len(seqMarker):]
		j := bytes.IndexByte(rest, '"')
		if j < 0 {
			break
		}
		if seq, err := strconv.Atoi(string(rest[:j])); err == nil {
			b.t.mu.Lock()
			if b.watcher < len(b.t.pushes) {
				if _, seen := b.t.pushes[b.watcher][seq]; !seen {
					b.t.pushes[b.watcher][seq] = at
				}
			}
			b.t.mu.Unlock()
		}
		buf = rest[j:]
	}
	keep := len(seqMarker) + 20
	if len(buf) > keep {
		buf = buf[len(buf)-keep:]
	}
	b.carry = append(b.carry[:0], buf...)
}

// countingDialer counts new connections (http.dials).
func (t *tracer) dialContext() func(ctx context.Context, network, addr string) (net.Conn, error) {
	d := &net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		t.dials.Add(1)
		return d.DialContext(ctx, network, addr)
	}
}

// --- HTTP server side ---

// wrapHandler times each traced request to srv's handler and keeps a
// sample of service request bodies for direct replay.
func (t *tracer) wrapHandler(h http.Handler, srv *mapserver.Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw := r.Header.Get(attemptHeader)
		if raw == "" || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		if _, ok := svcOfPath[r.URL.Path]; ok {
			t.mu.Lock()
			want := len(t.captures[r.URL.Path]) < maxCaptures
			t.mu.Unlock()
			if want {
				body, err := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(body))
				if err == nil {
					t.mu.Lock()
					t.captures[r.URL.Path] = append(t.captures[r.URL.Path], capture{r.URL.Path, body, srv})
					t.mu.Unlock()
				}
			}
		}
		start := t.now()
		h.ServeHTTP(w, r)
		end := t.now()
		if id, err := strconv.ParseUint(raw, 10, 64); err == nil {
			t.mu.Lock()
			t.handlers[id] = handlerRec{path: r.URL.Path, span: span{start, end}}
			t.mu.Unlock()
		}
	})
}

var svcOfPath = map[string]string{
	"/search": "search", "/geocode": "geocode", "/route": "route",
	"/routematrix": "routematrix", "/localize": "localize",
}

// replay decodes a captured body and returns the equivalent direct call
// on the server's Go API: the handler's compute without HTTP or JSON.
func (c capture) replay() (func(), error) {
	switch c.path {
	case "/search":
		var req wire.SearchRequest
		err := json.Unmarshal(c.body, &req)
		return func() { c.srv.Search(req) }, err
	case "/geocode":
		var req wire.GeocodeRequest
		err := json.Unmarshal(c.body, &req)
		return func() { c.srv.Geocode(req) }, err
	case "/route":
		var req wire.RouteRequest
		err := json.Unmarshal(c.body, &req)
		return func() { c.srv.Route(req) }, err
	case "/routematrix":
		var req wire.RouteMatrixRequest
		err := json.Unmarshal(c.body, &req)
		return func() { c.srv.RouteMatrix(req) }, err
	default:
		var req wire.LocalizeRequest
		err := json.Unmarshal(c.body, &req)
		return func() { c.srv.Localize(req) }, err
	}
}
