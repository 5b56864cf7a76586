package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"fivealarms"
	"fivealarms/internal/rng"
	"fivealarms/internal/serve"
	"fivealarms/internal/serve/api"
)

// Open-loop rates of the serve-read workload, fixed in absolute terms
// so they do not drift with the code under test: about 15% and 50% of
// the closed-loop capacity of a 2-core machine at the default scale.
const (
	rateLo = 500.0
	rateHi = 1500.0
)

// Shares, in percent of serve-read's measured seconds, of the server
// bring-ups and of the three load phases, each split evenly over the
// rounds. The hi phase is long enough that each 1-in-8 route gets over
// a thousand samples, enough for a p99 with ten samples beyond it.
const (
	bringUpPct = 35
	loPct      = 15
	closedPct  = 25
	hiPct      = 25
)

// rounds is how many rounds of bring-ups and load-phase slices
// serve-read runs; minRoundBringUps is the fewest bring-ups in each.
const (
	rounds           = 3
	minRoundBringUps = 2
)

// qpsWindow is the window closed-loop throughput is counted in.
const qpsWindow = 250 * time.Millisecond

// Routes of the read mix.
const (
	routePoint = iota
	routeBBox
	routeTables
	routeOverlay
	nRoutes
)

var routeNames = [nRoutes]string{"point", "bbox", "tables", "overlay"}

// routeWeight is the read mix in eighths: 4/8 point, 2/8 bbox, 1/8
// tables, 1/8 overlay (the fivealarmsload mix).
var routeWeight = [nRoutes]float64{4, 2, 1, 1}

// request is one read of the mix.
type request struct {
	route int
	path  string
}

// requestAt draws request i of a mix seeded by seed. Each request has
// its own rng stream, so the sequence does not depend on which sender
// takes which request.
func requestAt(seed uint64, i int) request {
	src := rng.NewStream(seed, uint64(i))
	switch k := src.Intn(8); {
	case k < 4:
		lon, lat := src.Range(-124, -67), src.Range(25, 49)
		return request{routePoint, fmt.Sprintf("/v1/risk/point?lon=%.4f&lat=%.4f", lon, lat)}
	case k < 6:
		return request{routeBBox, "/v1/risk/bbox?" + bboxQuery(src).query()}
	case k < 7:
		return request{routeTables, fmt.Sprintf("/v1/tables/%d", 1+src.Intn(3))}
	default:
		return request{routeOverlay, "/v1/overlay/whp"}
	}
}

// expectedBodies encodes the table and overlay responses from a
// directly built study: the server must send exactly these bytes.
func expectedBodies(st *fivealarms.Study) (map[string][]byte, error) {
	out := map[string][]byte{}
	for path, dto := range map[string]any{
		"/v1/tables/1":    api.Table1From(st.Table1()),
		"/v1/tables/2":    api.Table2From(st.Table2()),
		"/v1/tables/3":    api.Table3From(st.Table3()),
		"/v1/overlay/whp": api.WHPOverlayFrom(st.WHPOverlay()),
	} {
		b, err := encodeV1(dto)
		if err != nil {
			return nil, err
		}
		out[path] = b
	}
	return out, nil
}

// server is one in-process serve.Server behind a loopback httptest
// server, with a keep-alive client for at most senders connections.
type server struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	cancel context.CancelFunc
	want   map[string][]byte

	bufs []bytes.Buffer // one response buffer per sender

}

// startServer builds a server at cfg. The study is not built until
// Warm.
func startServer(parent context.Context, cfg fivealarms.Config, senders int, want map[string][]byte) (*server, error) {
	ctx, cancel := context.WithCancel(parent)
	srv, err := serve.New(ctx, serve.Options{Config: cfg})
	if err != nil {
		cancel()
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxIdleConns: senders, MaxIdleConnsPerHost: senders}
	return &server{
		srv: srv, ts: ts, cancel: cancel, want: want,
		client: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		bufs:   make([]bytes.Buffer, senders),
	}, nil
}

// stop closes the loopback server and its connections and cancels the
// server's build context.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.cancel()
}

// get issues one read as sender and checks the response: status 200
// and the v1 envelope, and for tables and the overlay the exact bytes
// a directly built study encodes to.
func (s *server) get(sender int, path string) error {
	resp, err := s.client.Get(s.ts.URL + path)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	buf := &s.bufs[sender]
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return fmt.Errorf("GET %s: reading body: %w", path, err)
	}
	return s.checkBody(path, resp.StatusCode, buf.Bytes())
}

// checkBody checks one response to path.
func (s *server) checkBody(path string, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	if want, ok := s.want[path]; ok {
		if !bytes.Equal(body, want) {
			return fmt.Errorf("GET %s: body differs from the directly built study's encoding", path)
		}
		return nil
	}
	if !bytes.Contains(body, []byte(`"version": "v1"`)) {
		return fmt.Errorf("GET %s: no v1 version stamp", path)
	}
	return nil
}

// warmPass reads every route of the mix once: each table, the overlay,
// and the first point and bbox reads of a seeded mix.
func (s *server) warmPass(seed uint64) []error {
	paths := []string{"/v1/tables/1", "/v1/tables/2", "/v1/tables/3", "/v1/overlay/whp"}
	var seen [nRoutes]bool
	for i := 0; !seen[routePoint] || !seen[routeBBox]; i++ {
		if q := requestAt(seed, i); !seen[q.route] && (q.route == routePoint || q.route == routeBBox) {
			seen[q.route] = true
			paths = append(paths, q.path)
		}
	}
	errs := make([]error, len(paths))
	for i, p := range paths {
		errs[i] = s.get(0, p)
	}
	return errs
}

// bringUp is one timed server set-up: New, Warm, the first
// /v1/tables/1 and a warm pass.
type bringUp struct {
	s               *server
	warm, firstRead time.Duration
	total           time.Duration
}

// bringUpServer starts a server and takes it through Warm, the first
// table read and a warm pass, counting each read as a check.
func bringUpServer(ctx context.Context, clk clock, tr *tracer, run int, cfg fivealarms.Config, senders int, want map[string][]byte, r *report) (*bringUp, error) {
	root := tr.begin("serve.bring_up", 0, run)
	defer tr.end(root)
	t0 := clk.Now()
	s, err := startServer(ctx, cfg, senders, want)
	if err != nil {
		return nil, err
	}
	b := &bringUp{s: s}
	id := tr.begin("serve.warm", root, run)
	b.warm = stopwatch(clk, func() { err = s.srv.Warm(ctx) })
	tr.end(id)
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("Warm: %w", err)
	}
	id = tr.begin("serve.first_read", root, run)
	b.firstRead = stopwatch(clk, func() { err = s.get(0, "/v1/tables/1") })
	tr.end(id)
	r.check(err == nil, "first read: %v", err)
	id = tr.begin("serve.warm_pass", root, run)
	for _, err := range s.warmPass(cfg.Seed) {
		r.check(err == nil, "warm pass: %v", err)
	}
	tr.end(id)
	b.total = clk.Now() - t0
	return b, nil
}

// loadPhase is one open- or closed-loop phase's samples and routes.
type loadPhase struct {
	samples []sample
	routes  []int
	elapsed time.Duration
}

// merge appends o's samples and routes to ph.
func (ph *loadPhase) merge(o *loadPhase) {
	ph.samples = append(ph.samples, o.samples...)
	ph.routes = append(ph.routes, o.routes...)
	ph.elapsed += o.elapsed
}

// tally counts every sample as an attempted check.
func (ph *loadPhase) tally(name string, r *report) {
	for _, x := range ph.samples {
		r.check(x.Err == nil, "%s request %d: %v", name, x.I, x.Err)
	}
}

// routeLatencies returns the latencies in ms of one route's samples.
func (ph *loadPhase) routeLatencies(route int) []float64 {
	var out []float64
	for k, x := range ph.samples {
		if ph.routes[k] == route {
			out = append(out, float64(x.latency())/1e6)
		}
	}
	return out
}

// sender wraps s.get for a load phase; with a tracer each request is a
// span named after its route, under the phase span.
func (s *server) sender(tr *tracer, phase, run int, req func(i int) request, routes []int) sendFunc {
	return func(w, i int) error {
		q := req(i)
		if routes != nil {
			routes[i] = q.route
		}
		id := tr.begin("serve."+routeNames[q.route], phase, run)
		defer tr.end(id)
		return s.get(w, q.path)
	}
}

// openPhase runs the read mix open-loop at rate for dur.
func (s *server) openPhase(clk clock, tr *tracer, run int, name string, rate float64, dur time.Duration, senders int, seed uint64) *loadPhase {
	id := tr.begin("load."+name, 0, run)
	defer tr.end(id)
	n := int(dur / time.Duration(float64(time.Second)/rate))
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = requestAt(seed, i)
	}
	ph := &loadPhase{routes: make([]int, n)}
	ph.samples = openLoop(clk, rate, dur, senders, s.sender(tr, id, run, func(i int) request { return reqs[i] }, ph.routes))
	return ph
}

// closedPhase runs the read mix with clients closed-loop clients.
func (s *server) closedPhase(clk clock, tr *tracer, run int, name string, dur time.Duration, clients int, seed uint64) *loadPhase {
	id := tr.begin("load."+name, 0, run)
	defer tr.end(id)
	ph := &loadPhase{}
	ph.samples, ph.elapsed = closedLoop(clk, dur, clients, s.sender(tr, id, run, func(i int) request { return requestAt(seed, i) }, nil))
	return ph
}

// handlerMicros times each route through Handler().ServeHTTP with a
// recorder, no transport: the median per route in microseconds.
func (s *server) handlerMicros(clk clock, seed uint64, perRoute int, r *report) [nRoutes]float64 {
	h := s.srv.Handler()
	var xs [nRoutes][]float64
	for i := 0; ; i++ {
		q := requestAt(seed, i)
		if len(xs[q.route]) >= perRoute {
			done := true
			for _, v := range xs {
				done = done && len(v) >= perRoute
			}
			if done {
				break
			}
			continue
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, q.path, nil)
		d := stopwatch(clk, func() { h.ServeHTTP(rec, req) })
		err := s.checkBody(q.path, rec.Code, rec.Body.Bytes())
		r.check(err == nil, "handler: %v", err)
		xs[q.route] = append(xs[q.route], float64(d)/1e3)
	}
	var out [nRoutes]float64
	for k := range xs {
		out[k] = median(xs[k])
	}
	return out
}

// shed counts the server's 429/503 responses.
func (s *server) shed() float64 {
	res := s.srv.Metrics().Snapshot().Resilience
	if res == nil {
		return 0
	}
	return float64(res.Shed429 + res.Shed503 + res.Timeouts)
}
